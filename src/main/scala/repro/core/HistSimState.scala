package repro.core

/** Mutable per-candidate state for one HistSim run.
  *
  * Tracks, for each candidate i in [0, nCandidates):
  *   - `n(i)`       — samples taken so far (tuples observed), the sum of
  *                    `counts(i)`,
  *   - `counts(i)`  — the empirical histogram over the |V_X| groups,
  *   - `tau(i)`     — l1 distance of the normalized empirical histogram
  *                    from the (already normalized) target Q-hat,
  *   - `exact(i)`   — whether candidate i's data has been exhausted
  *                    (every block containing it was read), in which case
  *                    its histogram is the true one and its deviation is 0.
  *
  * `tau` is maintained incrementally: only candidates touched by a batch
  * of new counts are recomputed (O(touched * |V_X|)), which is what makes
  * a per-block SyncMatch simulation tractable while preserving the
  * O(|V_Z| * |V_X|) complexity the paper charges per statistics iteration.
  */
final class HistSimState(val nCandidates: Int, val target: Array[Double]) {
  val vx: Int = target.length
  require(vx >= 1, "target must be non-empty")

  val n: Array[Long] = new Array[Long](nCandidates)
  val counts: Array[Array[Long]] = Array.fill(nCandidates)(new Array[Long](vx))
  val tau: Array[Double] = {
    val unsampled = Hist.dist(new Array[Long](vx), target)
    Array.fill(nCandidates)(unsampled)
  }
  val exact: Array[Boolean] = new Array[Boolean](nCandidates)

  /** Add `c` observed tuples with group value `x` for candidate `z`.
    * Does NOT refresh tau — call [[refreshTau]] once per batch.
    */
  def add(z: Int, x: Int, c: Long): Unit = {
    require(c >= 0, s"negative count $c")
    counts(z)(x) += c
    n(z) += c
  }

  /** Recompute tau for the given candidates (after a batch of adds). */
  def refreshTau(touched: Iterable[Int]): Unit =
    touched.foreach { z => tau(z) = Hist.dist(counts(z), n(z), target) }

  /** Recompute tau for the candidates `zs(0 until len)`, without boxing. */
  def refreshTau(zs: Array[Int], len: Int): Unit = {
    // copied to locals so that the loop reads no field
    val tau = this.tau; val counts = this.counts; val n = this.n; val target = this.target
    var i = 0
    while (i < len) { val z = zs(i); tau(z) = Hist.dist(counts(z), n(z), target); i += 1 }
  }

  /** Recompute tau for every candidate (used by tests as the oracle for
    * the incremental path, and at initialization). It sums the counts
    * rather than trusting `n`.
    */
  def refreshAllTau(): Unit = {
    var z = 0
    while (z < nCandidates) { tau(z) = Hist.dist(counts(z), target); z += 1 }
  }

  def markExact(z: Int): Unit = exact(z) = true
}
