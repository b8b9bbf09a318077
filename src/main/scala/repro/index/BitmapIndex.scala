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
  * Probes are counted by the caller-provided [[ProbeCounter]] so the cost
  * model can distinguish cache-cold (per-block, SyncMatch) from
  * cache-warm (lookahead-chunked, FastMatch) access patterns.
  */
final class BitmapIndex(val bitmaps: Array[BitSet], val numBlocks: Int) {
  val nCandidates: Int = bitmaps.length

  /** Does block `b` contain any tuple of candidate `z`? */
  def contains(z: Int, b: Int): Boolean = bitmaps(z).get(b)

  /** Number of distinct blocks containing candidate z — the candidate's
    * total population of blocks, used to detect exhaustion (sampling
    * without replacement).
    */
  def blockCount(z: Int): Int = bitmaps(z).cardinality()
}

object BitmapIndex {

  /** Build from a DataFrame via aggregation: one `collect_set(block)` per
    * candidate value. This is the "index construction" pass — in the
    * paper a preprocessing step over the stored blocks.
    */
  def build(df: DataFrame, zCol: String, vz: Int, blockCol: String, numBlocks: Int): BitmapIndex = {
    val rows = df
      .groupBy(col(zCol))
      .agg(collect_set(col(blockCol)).as("blocks"))
      .collect()
    val bitmaps = Array.fill(vz)(new BitSet(numBlocks))
    rows.foreach { r =>
      val z = asInt(r.get(0))
      require(z >= 0 && z < vz, s"candidate value $z out of [0, $vz)")
      r.getSeq[Any](1).foreach(b => bitmaps(z).set(asInt(b)))
    }
    new BitmapIndex(bitmaps, numBlocks)
  }

  /** Build from driver-side per-block counts (used when counts were
    * already prefetched; must agree with [[build]] — tested).
    */
  def fromBlockTriples(triples: Iterator[(Int, Int, Int)], vz: Int, numBlocks: Int): BitmapIndex = {
    val bitmaps = Array.fill(vz)(new BitSet(numBlocks))
    triples.foreach { case (block, z, _) => bitmaps(z).set(block) }
    new BitmapIndex(bitmaps, numBlocks)
  }
}
