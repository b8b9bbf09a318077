package repro.core

/** Mutable per-candidate state for one HistSim run.
  *
  * Tracks, for each candidate z in [0, nCandidates):
  *   - `n(z)`       — samples taken so far (tuples observed), the sum of
  *                    z's counts,
  *   - `counts`     — the empirical histograms over the |V_X| groups, in
  *                    one flat array: z's histogram is
  *                    `counts(z * vx until (z + 1) * vx)` ([[hist]] copies
  *                    it out),
  *   - `tau(z)`     — l1 distance of the normalized empirical histogram
  *                    from the (already normalized) target Q-hat,
  *   - `exact(z)`   — whether candidate z's data has been exhausted
  *                    (all of its tuples were read), in which case its
  *                    histogram is the true one and its deviation is 0,
  *   - `tauN(z)`    — the `n(z)` at which `tau(z)` was last computed.
  *
  * Counts only grow, by non-negative amounts, so z's counts changed since
  * `tau(z)` was computed iff `n(z) != tauN(z)`. `tau` is maintained
  * incrementally: [[Deviations.iterate]] recomputes it only for those
  * candidates (O(changed * |V_X|)), in the same sweep over the candidates
  * that selects the top k + 1, which preserves the O(|V_Z| * |V_X|)
  * complexity the paper charges per statistics iteration.
  */
final class HistSimState(val nCandidates: Int, val target: Array[Double]) {
  val vx: Int = target.length
  require(vx >= 1, "target must be non-empty")
  require(nCandidates >= 0 && nCandidates.toLong * vx <= Int.MaxValue,
    s"$nCandidates candidates × $vx groups do not fit one array")

  val n: Array[Long] = new Array[Long](nCandidates)
  val counts: Array[Long] = new Array[Long](nCandidates * vx)
  val tau: Array[Double] = {
    val unsampled = Hist.dist(new Array[Long](vx), target)
    Array.fill(nCandidates)(unsampled)
  }
  val exact: Array[Boolean] = new Array[Boolean](nCandidates)
  val tauN: Array[Long] = new Array[Long](nCandidates)

  /** Add `c` observed tuples with group value `x` for candidate `z`; if
    * `c > 0`, the next [[Deviations.iterate]] refreshes z's tau.
    */
  def add(z: Int, x: Int, c: Long): Unit = {
    // one sign test: z, x and the distances to their upper bounds are >= 0
    if ((z | x | (nCandidates - 1 - z) | (vx - 1 - x)) < 0)
      throw new IllegalArgumentException(s"candidate $z, group $x outside [0, $nCandidates) × [0, $vx)")
    require(c >= 0, s"negative count $c")
    counts(z * vx + x) += c
    n(z) += c
  }

  /** A copy of candidate z's histogram. */
  def hist(z: Int): Array[Long] = java.util.Arrays.copyOfRange(counts, z * vx, (z + 1) * vx)

  /** Recompute tau for the given candidates, recording their `n` in `tauN`. */
  def refreshTau(touched: Iterable[Int]): Unit =
    touched.foreach { z => tau(z) = Hist.dist(counts, z * vx, n(z), target); tauN(z) = n(z) }

  /** Recompute tau for every candidate, recording each `n` in `tauN`. It
    * sums the counts rather than trusting `n`.
    */
  def refreshAllTau(): Unit = {
    var z = 0
    while (z < nCandidates) { tau(z) = Hist.dist(hist(z), target); tauN(z) = n(z); z += 1 }
  }

  def markExact(z: Int): Unit = exact(z) = true
}
