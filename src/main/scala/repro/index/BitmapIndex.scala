package repro.index

import java.util.BitSet
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Checked.asInt

/** Per-candidate block bitmaps (Section 4.1, "Bitmap Index Structures"),
  * with each candidate's tuple count where the index was built from one.
  *
  * For candidate value z, bit p is set iff block p contains at least one
  * tuple with Z = z. The sampling engine probes these to apply the
  * AnyActive block-selection policy. One bit per *block* (not per tuple),
  * as in the paper. Next to each bitmap the index holds N_z, the number of
  * tuples with Z = z in the store: a run has read every tuple of z, and
  * so holds z's exact histogram, once it has counted N_z of them. An index
  * built from block membership alone ([[hasTuples]] false) holds no N_z.
  *
  * Each bitmap is stored once, as ⌈numBlocks/64⌉ 64-bit words (bit p in
  * word p / 64 at position p % 64), so that a lookahead pass tests 64
  * blocks with one AND. Bitmaps are immutable after construction:
  * [[blockCount]] is computed once, when the index is built, and
  * [[bitmaps]] returns copies.
  *
  * @param tupleCounts N_z per candidate, or null when unknown
  */
final class BitmapIndex private (val numBlocks: Int, bits: Array[Array[Long]], tupleCounts: Array[Long]) {

  /** From one `BitSet` per candidate and each candidate's tuple count; a
    * bit at or beyond `numBlocks` is rejected.
    */
  def this(bitmaps: Array[BitSet], tuples: Array[Long], numBlocks: Int) =
    this(numBlocks, bitmaps.map(BitmapIndex.words(_, numBlocks)), tuples.clone())

  val nCandidates: Int = bits.length

  private val blockCounts: Array[Int] = bits.map { w =>
    var c = 0; var i = 0
    while (i < w.length) { c += java.lang.Long.bitCount(w(i)); i += 1 }
    c
  }

  /** Whether the index holds N_z ([[tuples]]). */
  val hasTuples: Boolean = tupleCounts != null

  if (hasTuples) {
    require(tupleCounts.length == nCandidates,
      s"${tupleCounts.length} tuple counts for $nCandidates candidates")
    for (z <- 0 until nCandidates) {
      val n = tupleCounts(z); val blocks = blockCounts(z)
      require(n >= 0, s"candidate $z: negative tuple count $n")
      // every block that holds z holds at least one tuple of z
      require(n >= blocks, s"candidate $z: $n tuples in $blocks blocks")
      require(blocks > 0 || n == 0, s"candidate $z: $n tuples but no block")
    }
  }

  /** Does block `b` contain any tuple of candidate `z`? */
  def contains(z: Int, b: Int): Boolean = (bits(z)(b >>> 6) & (1L << b)) != 0

  /** Number of distinct blocks containing candidate z. */
  def blockCount(z: Int): Int = blockCounts(z)

  /** N_z: the number of tuples with Z = z in the store. Throws if the
    * index holds no tuple counts.
    */
  def tuples(z: Int): Long = {
    if (!hasTuples) throw new IllegalStateException("an index built from block membership alone holds no N_z")
    tupleCounts(z)
  }

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

  /** Build from a DataFrame via aggregation: one `collect_set(block)` and
    * one `count` per candidate value. This is the "index construction"
    * pass — in the paper a preprocessing step over the stored blocks.
    */
  def build(df: DataFrame, zCol: String, vz: Int, blockCol: String, numBlocks: Int): BitmapIndex = {
    val rows = df
      .groupBy(col(zCol))
      .agg(collect_set(col(blockCol)).as("blocks"), count(lit(1)).as("tuples"))
      .collect()
    val words = empty(vz, numBlocks)
    val tuples = new Array[Long](vz)
    rows.foreach { r =>
      val z = asInt(r.get(0))
      r.getSeq[Any](1).foreach(b => set(words, z, asInt(b), numBlocks))
      tuples(z) = r.getLong(2)
    }
    new BitmapIndex(numBlocks, words, tuples)
  }

  /** A store's contents as (block, z, count) entries: each tuple of the
    * store is counted in exactly one entry, and each count is at least 1.
    * [[repro.engine.PrefetchedCounts.allTriples]] yields them; [[Entries.apply]]
    * marks any iterator that keeps this contract. The type picks the
    * [[fromBlockTriples]] overload that records N_z.
    */
  abstract class Entries extends Iterator[(Int, Int, Int)]

  object Entries {
    def apply(entries: Iterator[(Int, Int, Int)]): Entries = new Entries {
      override def hasNext: Boolean = entries.hasNext
      override def next(): (Int, Int, Int) = entries.next()
    }
  }

  /** Build from driver-side (block, z, x) triples (must agree with
    * [[build]] — tested). Only block and z are read, so the index holds no
    * N_z; a run over it decides exhaustion from its bitmaps, with the same
    * results. A store's [[Entries]] take the overload below, which records
    * N_z.
    */
  def fromBlockTriples(triples: Iterator[(Int, Int, Int)], vz: Int, numBlocks: Int): BitmapIndex = {
    val words = empty(vz, numBlocks)
    while (triples.hasNext) {
      val t = triples.next()
      set(words, t._2, t._1, numBlocks)
    }
    new BitmapIndex(numBlocks, words, null)
  }

  /** Build from a store's (block, z, count) entries, each with a count of
    * at least 1 (used when counts were already prefetched; must agree
    * with [[build]] — tested). A `while` loop over the iterator, so that
    * the JIT can drop each entry's tuple once `next` is inlined.
    */
  def fromBlockTriples(entries: Entries, vz: Int, numBlocks: Int): BitmapIndex = {
    val words = empty(vz, numBlocks)
    val tuples = new Array[Long](vz)
    while (entries.hasNext) {
      val t = entries.next()
      val z = t._2; val c = t._3
      set(words, z, t._1, numBlocks)
      // a plain throw: a `require`'s by-name message would capture the
      // tuple and keep the JIT from dropping it
      if (c < 1) throw new IllegalArgumentException(s"block ${t._1}: count $c for candidate $z; an entry holds at least one tuple")
      tuples(z) += c
    }
    new BitmapIndex(numBlocks, words, tuples)
  }
}
