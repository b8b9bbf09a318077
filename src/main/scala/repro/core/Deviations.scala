package repro.core

/** Result of one statistics-engine iteration (lines 8–14 of Algorithm 1).
  *
  * @param matching   the k candidate indices with smallest estimated tau
  *                   (the set M of Definition 3), sorted by tau ascending
  * @param eps        per-candidate deviation bounds chosen per Section 3.3
  * @param delta      per-candidate failure-probability upper bounds from
  *                   Theorem 1 (0 for exhausted candidates)
  * @param deltaUpper sum of delta — HistSim terminates when <= global delta
  * @param deltaMax   max of delta — SlowMatch terminates when <= delta/|V_Z|
  * @param active     AnyActive candidate set: delta(i) > delta/|V_Z|
  *                   (Section 4.2, Challenge 2)
  * @param splitPoint the split s between M and the rest (Double.NaN when
  *                   every candidate is in M)
  */
final case class Iteration(
    matching: Array[Int],
    eps: Array[Double],
    delta: Array[Double],
    deltaUpper: Double,
    deltaMax: Double,
    active: Array[Boolean],
    splitPoint: Double,
)

/** The deviation-selection step of HistSim (Section 3.3).
  *
  * Given current per-candidate (counts, n, exact) state it:
  *   1. in one sweep over the candidates in index order, recomputes tau
  *      of each candidate whose counts changed since its tau was computed
  *      (`n(z) != tauN(z)`) and selects the k + 1 candidates with the
  *      smallest tau (O(|V_Z| * k + changed * |V_X|), no full sort),
  *      taking the first k as M;
  *   2. chooses the split point s halfway between the furthest candidate
  *      in M and the closest candidate outside M;
  *   3. assigns each candidate the largest deviation bound eps_i allowed
  *      by Lemma 2's constraints:
  *        i in M:     eps_i = min(eps, s + eps/2 - tau_i)
  *        j not in M: eps_j = max(0, tau_j - max(s - eps/2, 0))
  *   4. converts (eps_i, n_i) into failure probabilities delta_i via
  *      Theorem 1, with delta_i = 0 for exhausted candidates (their
  *      histograms are exact, so deviation is 0 with certainty).
  */
object Deviations {

  /** Run one iteration. Refreshes `state.tau` of the candidates whose `n`
    * moved since their tau was computed, and records that `n` in
    * `state.tauN`.
    */
  def iterate(state: HistSimState, k: Int, eps: Double, delta: Double): Iteration = {
    val nz = state.nCandidates
    require(k >= 1, s"k must be >= 1, got $k")
    require(eps > 0 && delta > 0 && delta < 1, s"bad (eps=$eps, delta=$delta)")

    val kk = math.min(k, nz)
    val tau = state.tau; val tauN = state.tauN
    val counts = state.counts; val n = state.n; val target = state.target; val vx = state.vx
    // Every candidate offered before z already has its final tau, so the
    // selection is the prefix of a stable sort of the refreshed taus.
    val order = new Array[Int](math.min(kk + 1, nz))
    var len = 0
    var z = 0
    while (z < nz) {
      val seen = n(z)
      if (seen != tauN(z)) { tau(z) = Hist.dist(counts, z * vx, seen, target); tauN(z) = seen }
      len = offer(tau, order, len, z)
      z += 1
    }
    val matching = java.util.Arrays.copyOf(order, kk)

    val epsOut = new Array[Double](nz)
    val deltaOut = new Array[Double](nz)
    val active = new Array[Boolean](nz)

    val splitPoint =
      if (kk >= nz) Double.NaN
      else (tau(order(kk - 1)) + tau(order(kk))) / 2.0

    val inM = new Array[Boolean](nz)
    var m = 0
    while (m < kk) { inM(matching(m)) = true; m += 1 }

    val lowerFence = if (splitPoint.isNaN) 0.0 else math.max(splitPoint - eps / 2.0, 0.0)
    val activeThreshold = delta / nz
    var sum = 0.0; var max = 0.0
    var i = 0
    while (i < nz) {
      val e =
        if (inM(i)) {
          // Constraint 2 (reconstruction) caps at eps; constraint 1
          // caps at s + eps/2 - tau_i. With no split (all candidates
          // in M) only the reconstruction cap applies.
          if (splitPoint.isNaN) eps
          else math.min(eps, splitPoint + eps / 2.0 - tau(i))
        } else {
          math.max(0.0, tau(i) - lowerFence)
        }
      val d = if (state.exact(i)) 0.0 else Bounds.deltaFor(n(i), e, vx)
      epsOut(i) = e
      deltaOut(i) = d
      sum += d
      if (d > max) max = d
      active(i) = d > activeThreshold
      i += 1
    }

    Iteration(matching, epsOut, deltaOut, sum, max, active, splitPoint)
  }

  /** Offers index i to `out(0 until len)`, the indices of the smallest
    * entries of `tau` offered so far in stable order, kept to at most
    * `out.length` (>= 1) entries; i must exceed every index offered
    * before. Returns the new length. Once `out` is full, most entries are
    * rejected by one comparison with the last.
    */
  private def offer(tau: Array[Double], out: Array[Int], len: Int, i: Int): Int = {
    val m = out.length
    val t = tau(i)
    if (len < m || java.lang.Double.compare(t, tau(out(m - 1))) < 0) {
      // shift strictly larger entries right; equal ones keep their
      // place ahead of i, since they have lower indices
      var j = if (len < m) len else m - 1
      while (j > 0 && java.lang.Double.compare(t, tau(out(j - 1))) < 0) { out(j) = out(j - 1); j -= 1 }
      out(j) = i
      if (len < m) len + 1 else len
    } else len
  }
}
