package repro.index

import java.util.BitSet
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Checked.asInt

/** Per-candidate block bitmaps (Section 4.1, "Bitmap Index Structures").
  *
  * For candidate value z, bit p is set iff block p contains at least one
  * tuple with Z = z. The sampling engine probes these to apply the
  * AnyActive block-selection policy. One bit per *block* (not per tuple),
  * as in the paper.
  *
  * Each bitmap is stored once, as ⌈numBlocks/64⌉ 64-bit words (bit p in
  * word p / 64 at position p % 64), so that a lookahead pass tests 64
  * blocks with one AND. Bitmaps are immutable after construction:
  * [[blockCount]] is computed once, when the index is built, and
  * [[bitmaps]] returns copies.
  */
final class BitmapIndex private (val numBlocks: Int, bits: Array[Array[Long]]) {

  /** From one `BitSet` per candidate; a bit at or beyond `numBlocks` is
    * rejected.
    */
  def this(bitmaps: Array[BitSet], numBlocks: Int) =
    this(numBlocks, bitmaps.map(BitmapIndex.words(_, numBlocks)))

  val nCandidates: Int = bits.length

  private val blockCounts: Array[Int] = bits.map { w =>
    var c = 0; var i = 0
    while (i < w.length) { c += java.lang.Long.bitCount(w(i)); i += 1 }
    c
  }

  /** Does block `b` contain any tuple of candidate `z`? */
  def contains(z: Int, b: Int): Boolean = (bits(z)(b >>> 6) & (1L << b)) != 0

  /** Number of distinct blocks containing candidate z — the candidate's
    * total population of blocks, used to detect exhaustion (sampling
    * without replacement).
    */
  def blockCount(z: Int): Int = blockCounts(z)

  /** Candidate z's bitmap words, ⌈numBlocks/64⌉ of them, with no bit at
    * or beyond `numBlocks`. The index's own array: callers must not write
    * to it.
    */
  private[repro] def words(z: Int): Array[Long] = bits(z)

  /** Each candidate's bitmap as a new `BitSet`. */
  def bitmaps: Array[BitSet] = bits.map(w => BitSet.valueOf(w))
}

object BitmapIndex {

  private def nWords(numBlocks: Int): Int = (numBlocks + 63) >>> 6

  private def words(bits: BitSet, numBlocks: Int): Array[Long] = {
    require(bits.length <= numBlocks, s"bitmap sets block ${bits.length - 1}, beyond $numBlocks blocks")
    java.util.Arrays.copyOf(bits.toLongArray, nWords(numBlocks))
  }

  /** Empty bitmaps for `vz` candidates, set through [[set]]. */
  private def empty(vz: Int, numBlocks: Int): Array[Array[Long]] = {
    require(numBlocks >= 0, s"negative block count $numBlocks")
    Array.fill(vz)(new Array[Long](nWords(numBlocks)))
  }

  private def set(words: Array[Array[Long]], z: Int, b: Int, numBlocks: Int): Unit = {
    require(z >= 0 && z < words.length, s"candidate value $z out of [0, ${words.length})")
    require(b >= 0 && b < numBlocks, s"block id $b out of [0, $numBlocks)")
    words(z)(b >>> 6) |= 1L << b
  }

  /** Build from a DataFrame via aggregation: one `collect_set(block)` per
    * candidate value. This is the "index construction" pass — in the
    * paper a preprocessing step over the stored blocks.
    */
  def build(df: DataFrame, zCol: String, vz: Int, blockCol: String, numBlocks: Int): BitmapIndex = {
    val rows = df
      .groupBy(col(zCol))
      .agg(collect_set(col(blockCol)).as("blocks"))
      .collect()
    val words = empty(vz, numBlocks)
    rows.foreach { r =>
      val z = asInt(r.get(0))
      r.getSeq[Any](1).foreach(b => set(words, z, asInt(b), numBlocks))
    }
    new BitmapIndex(numBlocks, words)
  }

  /** Build from driver-side per-block counts (used when counts were
    * already prefetched; must agree with [[build]] — tested).
    */
  def fromBlockTriples(triples: Iterator[(Int, Int, Int)], vz: Int, numBlocks: Int): BitmapIndex = {
    val words = empty(vz, numBlocks)
    triples.foreach { case (block, z, _) => set(words, z, block, numBlocks) }
    new BitmapIndex(numBlocks, words)
  }
}
