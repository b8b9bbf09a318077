package repro.engine

import repro.core.Hist
import repro.engine.GroundTruth.Truth
import repro.index.BitmapIndex

/** In-memory block stores with known ground truth, for driver-side tests of
  * `Matchers.run` (no Spark needed).
  */
object ToyStore {

  /** In-memory population: candidate z has freq(z) tuples drawn from
    * dists(z), scattered uniformly over blocks. The returned truth takes
    * candidate 0's histogram as the target and k = 2.
    */
  def apply(freq: Array[Int], dists: Array[Array[Double]],
            tuplesPerBlock: Int, seed: Long): (BlockReader, BitmapIndex, Truth, Int) = {
    val vz = freq.length; val vx = dists(0).length
    val rows = freq.map(_.toLong).sum
    val b = math.max(1, (rows / tuplesPerBlock).toInt)
    val rng = new java.util.Random(seed)
    val cdfs = dists.map { d =>
      val out = new Array[Double](d.length); var acc = 0.0
      for (i <- d.indices) { acc += d(i); out(i) = acc }
      out(d.length - 1) = 1.0; out
    }
    val perBlock = Array.fill(b)(scala.collection.mutable.Map.empty[(Int, Int), Int])
    val hists = Array.fill(vz)(new Array[Long](vx))
    for (z <- 0 until vz; _ <- 0 until freq(z)) {
      val u = rng.nextDouble(); var x = 0
      while (cdfs(z)(x) < u) x += 1
      val blk = rng.nextInt(b)
      perBlock(blk)((z, x)) = perBlock(blk).getOrElse((z, x), 0) + 1
      hists(z)(x) += 1
    }
    val reader = new BlockReader {
      override val numBlocks: Int = b
      override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] =
        blocks.map(blk => perBlock(blk).iterator.map { case ((z, x), c) => (z, x, c) }.toArray)
    }
    val index = BitmapIndex.fromBlockTriples(
      perBlock.iterator.zipWithIndex.flatMap { case (m, blk) =>
        m.keysIterator.map { case (z, _) => (blk, z, 1) }
      }, vz, b)
    val target = Hist.normalize(hists(0))
    val tau = hists.map(h => Hist.dist(h, target))
    val k = 2
    val topK = Array.range(0, vz).sortBy(tau).take(k)
    (reader, index, Truth(target, hists, tau, topK), b)
  }
}
