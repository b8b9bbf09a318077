package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Checked.asInt

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
  *  - [[PrefetchedCounts]] runs a single Spark groupBy(block, z, x) pass
  *    up front and serves blocks from driver memory, enabling the
  *    fine-grained (per-4KiB-block) simulation the benchmarks need
  *    without paying per-round Spark job latency.
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
      .filter(col(blockCol).isin(blocks.map(Integer.valueOf): _*))
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

  def tuplesInBlock(b: Int): Long = {
    var i = offsets(b); var s = 0L
    while (i < offsets(b + 1)) { s += cArr(i); i += 1 }
    s
  }

  /** Every CSR entry as (block, z, x), block by block. */
  def allTriples: Iterator[(Int, Int, Int)] =
    Iterator.range(0, numBlocks).flatMap { b =>
      Iterator.range(offsets(b), offsets(b + 1)).map(i => (b, zArr(i), xArr(i)))
    }
}

object PrefetchedCounts {

  /** One full groupBy(block, z, x) Spark pass, collected and packed. */
  def build(df: DataFrame, zCol: String, xCol: String, blockCol: String,
            numBlocks: Int): PrefetchedCounts = {
    val rows = df
      .groupBy(col(blockCol).as("b"), col(zCol).as("z"), col(xCol).as("x"))
      .agg(count(lit(1)).as("c"))
      .collect()
    val n = rows.length
    val blocks = new Array[Int](n)
    val zs = new Array[Int](n)
    val xs = new Array[Int](n)
    val cs = new Array[Int](n)
    var i = 0
    while (i < n) {
      val r = rows(i)
      blocks(i) = asInt(r.get(0)); zs(i) = asInt(r.get(1))
      xs(i) = asInt(r.get(2)); cs(i) = asInt(r.getLong(3))
      i += 1
    }
    fromTriples(numBlocks, blocks, zs, xs, cs)
  }

  /** Packs parallel (block, z, x, count) arrays into CSR, keeping the input
    * order within each block.
    */
  def fromTriples(numBlocks: Int, blocks: Array[Int], zs: Array[Int], xs: Array[Int],
                  cs: Array[Int]): PrefetchedCounts = {
    val n = blocks.length
    require(zs.length == n && xs.length == n && cs.length == n, "triple arrays differ in length")
    // counting sort by block into CSR
    val offsets = new Array[Int](numBlocks + 1)
    var i = 0
    while (i < n) { offsets(blocks(i) + 1) += 1; i += 1 }
    i = 0
    while (i < numBlocks) { offsets(i + 1) += offsets(i); i += 1 }
    val pos = offsets.clone()
    val zOut = new Array[Int](n); val xOut = new Array[Int](n); val cOut = new Array[Int](n)
    i = 0
    while (i < n) {
      val p = pos(blocks(i)); pos(blocks(i)) += 1
      zOut(p) = zs(i); xOut(p) = xs(i); cOut(p) = cs(i)
      i += 1
    }
    new PrefetchedCounts(numBlocks, offsets, zOut, xOut, cOut)
  }
}
