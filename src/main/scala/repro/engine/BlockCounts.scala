package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Checked.asInt
import repro.index.BitmapIndex
import scala.collection.mutable.ArrayBuilder

/** Receives the contents of storage blocks from [[BlockReader.visit]]:
  * `startBlock(b)` once per block, then `triple` for each of b's
  * (z, x, count) triples.
  */
trait BlockVisitor {
  def startBlock(b: Int): Unit
  def triple(z: Int, x: Int, c: Int): Unit
}

/** Supplies the contents of storage blocks as (z, x, count) triples —
  * the I/O-manager abstraction. Two implementations:
  *
  *  - [[SparkRoundReader]] issues one distributed DataFrame aggregation
  *    per requested batch of blocks (the online-sampling path: each
  *    HistSim round is a real sample-then-aggregate Spark job);
  *  - [[PrefetchedCounts]] runs a single shuffle-free Spark scan of
  *    Catalyst rows up front, counts (block, z, x) on the driver and serves blocks from
  *    driver memory, enabling the fine-grained (per-4KiB-block)
  *    simulation the benchmarks need without paying per-round Spark job
  *    latency.
  *
  * Both must agree exactly (tested).
  */
trait BlockReader {
  def numBlocks: Int

  /** For each requested block id (order preserved), its (z, x, count)
    * triples. A block with no tuples yields an empty array.
    */
  def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]]

  /** Feeds the requested blocks, in order, to `visitor`: the same blocks
    * and triples as [[read]]. This default goes through `read`; a reader
    * that holds its counts can override it to allocate nothing.
    */
  def visit(blocks: Array[Int], visitor: BlockVisitor): Unit = {
    val contents = read(blocks)
    var i = 0
    while (i < blocks.length) {
      visitor.startBlock(blocks(i))
      val triples = contents(i)
      var j = 0
      while (j < triples.length) {
        val t = triples(j)
        visitor.triple(t._1, t._2, t._3)
        j += 1
      }
      i += 1
    }
  }
}

/** One Spark job per batch: filter to the sampled blocks, aggregate. */
final class SparkRoundReader(df: DataFrame, zCol: String, xCol: String,
                             blockCol: String, val numBlocks: Int) extends BlockReader {

  override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] = {
    if (blocks.isEmpty) return Array.empty
    val rows = df
      .filter(col(blockCol).isin(blocks.toIndexedSeq.map(Integer.valueOf): _*))
      .groupBy(col(blockCol).as("b"), col(zCol).as("z"), col(xCol).as("x"))
      .agg(count(lit(1)).as("c"))
      .collect()
    val byBlock = rows.groupBy(r => asInt(r.get(0)))
    blocks.map { b =>
      byBlock.get(b) match {
        case Some(rs) => rs.map(r => (asInt(r.get(1)), asInt(r.get(2)), asInt(r.getLong(3))))
        case None     => Array.empty[(Int, Int, Int)]
      }
    }
  }
}

/** Driver-resident per-block counts in CSR layout. */
final class PrefetchedCounts private (
    val numBlocks: Int,
    offsets: Array[Int], // length numBlocks + 1
    zArr: Array[Int],
    xArr: Array[Int],
    cArr: Array[Int],
) extends BlockReader {

  override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] =
    blocks.map { b =>
      val from = offsets(b); val until = offsets(b + 1)
      Array.tabulate(until - from)(i => (zArr(from + i), xArr(from + i), cArr(from + i)))
    }

  /** Walks the CSR arrays directly, allocating nothing: the hot path of
    * [[Matchers]].
    */
  override def visit(blocks: Array[Int], visitor: BlockVisitor): Unit = {
    var i = 0
    while (i < blocks.length) {
      val b = blocks(i)
      visitor.startBlock(b)
      var j = offsets(b)
      val until = offsets(b + 1)
      while (j < until) { visitor.triple(zArr(j), xArr(j), cArr(j)); j += 1 }
      i += 1
    }
  }

  /** Every CSR entry as (block, z, count), block by block: the store's
    * [[BitmapIndex.Entries]], from which `fromBlockTriples` builds an
    * index with N_z. One small
    * iterator with no inner iterators or closures, so that a caller's
    * `while` loop over it can be compiled without the tuples and boxes.
    */
  def allTriples: BitmapIndex.Entries = new BitmapIndex.Entries {
    private var b = 0
    private var i = 0
    override def hasNext: Boolean = i < zArr.length
    override def next(): (Int, Int, Int) = {
      if (i >= zArr.length) throw new NoSuchElementException("no CSR entry left")
      while (offsets(b + 1) <= i) b += 1
      val t = (b, zArr(i), cArr(i))
      i += 1
      t
    }
  }
}

object PrefetchedCounts {

  /** One Spark job with no shuffle ([[IntColumns.scan]]). Each partition
    * ships its (block, z, x) rows as three primitive arrays; the driver
    * counts them in [[fromTriples]]. At 64 tuples per block nearly every
    * (block, z, x) occurs once, so a Spark aggregation would shuffle about
    * as many rows as it reads and save nothing.
    */
  def build(df: DataFrame, zCol: String, xCol: String, blockCol: String,
            numBlocks: Int): PrefetchedCounts = {
    val parts = IntColumns.scan(df, Seq(blockCol, zCol, xCol)) { rows =>
      val bs = new ArrayBuilder.ofInt; val zs = new ArrayBuilder.ofInt; val xs = new ArrayBuilder.ofInt
      while (rows.next()) { bs += rows(0); zs += rows(1); xs += rows(2) }
      (bs.result(), zs.result(), xs.result())
    }
    val n = asInt(parts.iterator.map(_._1.length.toLong).sum)
    val blocks = new Array[Int](n); val zs = new Array[Int](n); val xs = new Array[Int](n)
    var at = 0
    for ((b, z, x) <- parts) {
      System.arraycopy(b, 0, blocks, at, b.length)
      System.arraycopy(z, 0, zs, at, z.length)
      System.arraycopy(x, 0, xs, at, x.length)
      at += b.length
    }
    fromTriples(numBlocks, blocks, zs, xs)
  }

  /** Counts parallel (block, z, x) rows, one row per tuple, into CSR. Each
    * distinct (z, x) of a block becomes one (z, x, count) entry, and a
    * block's entries are sorted by (z, x), so the same rows give the same
    * CSR in any order.
    */
  def fromTriples(numBlocks: Int, blocks: Array[Int], zs: Array[Int], xs: Array[Int]): PrefetchedCounts = {
    val n = blocks.length
    require(numBlocks >= 0, s"negative block count $numBlocks")
    require(zs.length == n && xs.length == n, "triple arrays differ in length")
    // counting sort by block, keys (z << 32) | x
    val start = new Array[Int](numBlocks + 1)
    var i = 0
    while (i < n) {
      val b = blocks(i)
      require(b >= 0 && b < numBlocks, s"block id $b out of range [0, $numBlocks)")
      require(zs(i) >= 0, s"negative z ${zs(i)} in block $b")
      require(xs(i) >= 0, s"negative x ${xs(i)} in block $b")
      start(b + 1) += 1
      i += 1
    }
    i = 0
    while (i < numBlocks) { start(i + 1) += start(i); i += 1 }
    val pos = start.clone()
    val keys = new Array[Long](n)
    i = 0
    while (i < n) {
      val b = blocks(i)
      keys(pos(b)) = (zs(i).toLong << 32) | xs(i)
      pos(b) += 1
      i += 1
    }
    // sort each block's keys and turn each run of equal keys into one entry
    val offsets = new Array[Int](numBlocks + 1)
    val zOut = new Array[Int](n); val xOut = new Array[Int](n); val cOut = new Array[Int](n)
    var e = 0
    var b = 0
    while (b < numBlocks) {
      val until = start(b + 1)
      java.util.Arrays.sort(keys, start(b), until)
      var j = start(b)
      while (j < until) {
        val key = keys(j)
        var run = j + 1
        while (run < until && keys(run) == key) run += 1
        zOut(e) = (key >>> 32).toInt; xOut(e) = key.toInt; cOut(e) = run - j
        e += 1
        j = run
      }
      b += 1
      offsets(b) = e
    }
    new PrefetchedCounts(numBlocks, offsets, java.util.Arrays.copyOf(zOut, e),
      java.util.Arrays.copyOf(xOut, e), java.util.Arrays.copyOf(cOut, e))
  }
}
