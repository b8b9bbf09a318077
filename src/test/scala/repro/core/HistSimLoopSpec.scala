package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.{Approach, BlockReader, MatchTask, Matchers, RunResult, ToyStore}
import repro.index.BitmapIndex

/** End-to-end tests of the Algorithm 1 loop (`Matchers.run`) against
  * in-memory populations drawn from known distributions, checked against
  * those generating distributions rather than the store's exact counts.
  */
class HistSimLoopSpec extends AnyFunSuite {

  /** A toy population: candidates 0 and 1 close to the uniform target, the
    * rest progressively far.
    */
  private def toyDists(vz: Int, vx: Int): (Array[Double], Array[Array[Double]]) = {
    val target = Hist.uniform(vx)
    val dists = Array.tabulate(vz) { z =>
      if (z < 2) Hist.normalize(Array.tabulate(vx)(x => 1.0 + (if (x == z) 0.05 else 0.0)))
      else {
        val bump = 0.5 + 0.5 * z
        Hist.normalize(Array.tabulate(vx)(x => if (x == z % vx) bump * vx else 1.0))
      }
    }
    (target, dists)
  }

  /** Runs `app` on a store of 3000 tuples per candidate drawn from `dists`. */
  private def runToy(app: Approach, target: Array[Double], dists: Array[Array[Double]],
                     eps: Double, delta: Double, seed: Long): RunResult = {
    val (reader, index, _, _) = ToyStore(Array.fill(dists.length)(3000), dists, tuplesPerBlock = 32, seed)
    Matchers.run(app, MatchTask(dists.length, target.length, 2, eps, delta, target), reader, index, 0)
  }

  private val approximate = Approach.all.filter(_ != Approach.Scan)

  test("HistSim finds the true top-2 on a well-separated population") {
    val (target, dists) = toyDists(vz = 8, vx = 6)
    for (app <- approximate) {
      val res = runToy(app, target, dists, eps = 0.3, delta = 0.05, seed = 1)
      assert(res.matching.toSet == Set(0, 1), s"$app")
      assert(res.deltaUpper <= 0.05, s"$app")
    }
  }

  test("returned histograms satisfy reconstruction against true distributions") {
    val (target, dists) = toyDists(vz = 8, vx = 6)
    val eps = 0.3
    for (app <- approximate) {
      val res = runToy(app, target, dists, eps, delta = 0.05, seed = 2)
      res.matching.foreach { i =>
        assert(Hist.l1(Hist.normalize(res.counts(i)), dists(i)) < eps,
          s"$app: reconstruction failed for candidate $i")
      }
    }
  }

  test("separation: estimated taus are close to true taus at termination") {
    val (target, dists) = toyDists(vz = 8, vx = 6)
    val trueTau = dists.map(d => Hist.l1(d, target))
    val eps = 0.3
    for (app <- approximate) {
      val res = runToy(app, target, dists, eps, delta = 0.05, seed = 3)
      res.matching.foreach(i => assert(math.abs(res.tau(i) - trueTau(i)) < eps, s"$app candidate $i"))
    }
  }

  test("MaxDelta (SlowMatch) needs at least as many samples as SumDelta") {
    val (target, dists) = toyDists(vz = 10, vx = 6)
    def samplesWith(app: Approach, seed: Long): Long =
      runToy(app, target, dists, eps = 0.25, delta = 0.05, seed).cost.tuplesRead
    // summed over stores to damp round-granularity noise
    val sum = (1L to 5L).map(samplesWith(Approach.ScanMatch, _)).sum
    val max = (1L to 5L).map(samplesWith(Approach.SlowMatch, _)).sum
    assert(max >= sum, s"MaxDelta used $max total samples < SumDelta's $sum")
  }

  test("active-only sampling still returns correct results") {
    // SyncMatch and FastMatch read only blocks holding an active candidate
    val (target, dists) = toyDists(vz = 8, vx = 6)
    for (app <- Seq(Approach.SyncMatch, Approach.FastMatch)) {
      val res = runToy(app, target, dists, eps = 0.3, delta = 0.05, seed = 4)
      assert(res.matching.toSet == Set(0, 1), s"$app")
    }
  }

  test("finite population: exhaustion forces exactness and termination") {
    // a tiny one-block population; eps far too small to ever be met by
    // sampling alone
    val vx = 4
    val target = Hist.uniform(vx)
    val pop: Array[Array[Int]] = Array(
      Array(10, 10, 10, 10), // candidate 0: exactly uniform
      Array(30, 5, 3, 2),    // candidate 1: far
    )
    val rows = for (z <- pop.indices; x <- 0 until vx if pop(z)(x) > 0) yield (z, x, pop(z)(x))
    val reader = new BlockReader {
      override def numBlocks: Int = 1
      override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] = blocks.map(_ => rows.toArray)
    }
    val index = BitmapIndex.fromBlockTriples(rows.iterator.map { case (z, _, c) => (0, z, c) }, pop.length, 1)
    for (app <- Approach.all) {
      val res = Matchers.run(app, MatchTask(2, vx, 1, 0.001, 0.001, target), reader, index, 0)
      assert(res.matching.sameElements(Array(0)), s"$app")
      assert(res.deltaUpper == 0.0, s"$app")
    }
  }
}
