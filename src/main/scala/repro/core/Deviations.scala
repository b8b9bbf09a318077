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
  * Given current per-candidate (tau, n, exact) state it:
  *   1. selects the k + 1 candidates with the smallest estimated
  *      distance tau (O(|V_Z| * k), no full sort) and takes the first k
  *      as M;
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

  /** Run one iteration. `state.tau` must be fresh for all candidates whose
    * counts changed since the last call.
    */
  def iterate(state: HistSimState, k: Int, eps: Double, delta: Double): Iteration = {
    val nz = state.nCandidates
    require(k >= 1, s"k must be >= 1, got $k")
    require(eps > 0 && delta > 0 && delta < 1, s"bad (eps=$eps, delta=$delta)")

    val kk = math.min(k, nz)
    val order = smallest(state.tau, math.min(kk + 1, nz))
    val matching = java.util.Arrays.copyOf(order, kk)

    val epsOut = new Array[Double](nz)
    val deltaOut = new Array[Double](nz)
    val active = new Array[Boolean](nz)

    val splitPoint =
      if (kk >= nz) Double.NaN
      else (state.tau(order(kk - 1)) + state.tau(order(kk))) / 2.0

    val inM = new Array[Boolean](nz)
    var m = 0
    while (m < kk) { inM(matching(m)) = true; m += 1 }

    val lowerFence = if (splitPoint.isNaN) 0.0 else math.max(splitPoint - eps / 2.0, 0.0)
    var i = 0
    while (i < nz) {
      epsOut(i) =
        if (inM(i)) {
          // Constraint 2 (reconstruction) caps at eps; constraint 1
          // caps at s + eps/2 - tau_i. With no split (all candidates
          // in M) only the reconstruction cap applies.
          if (splitPoint.isNaN) eps
          else math.min(eps, splitPoint + eps / 2.0 - state.tau(i))
        } else {
          math.max(0.0, state.tau(i) - lowerFence)
        }
      deltaOut(i) =
        if (state.exact(i)) 0.0
        else Bounds.deltaFor(state.n(i), epsOut(i), state.vx)
      i += 1
    }

    var sum = 0.0; var max = 0.0
    val activeThreshold = delta / nz
    i = 0
    while (i < nz) {
      sum += deltaOut(i)
      if (deltaOut(i) > max) max = deltaOut(i)
      active(i) = deltaOut(i) > activeThreshold
      i += 1
    }

    Iteration(matching, epsOut, deltaOut, sum, max, active, splitPoint)
  }

  /** Indices of the `m` smallest entries of `tau`, ordered by
    * `java.lang.Double.compare` and then by lower index: exactly the first
    * `m` entries of `Array.range(0, tau.length).sortBy(tau)`, which is a
    * stable sort. Insertion into a sorted prefix, O(tau.length * m); most
    * entries are rejected by one comparison with the current m-th.
    */
  def smallest(tau: Array[Double], m: Int): Array[Int] = {
    require(m >= 0 && m <= tau.length, s"m=$m out of [0, ${tau.length}]")
    val out = new Array[Int](m)
    if (m == 0) return out
    var len = 0
    var i = 0
    while (i < tau.length) {
      val t = tau(i)
      if (len < m || java.lang.Double.compare(t, tau(out(m - 1))) < 0) {
        // shift strictly larger entries right; equal ones keep their
        // place ahead of i, since they have lower indices
        var j = if (len < m) len else m - 1
        while (j > 0 && java.lang.Double.compare(t, tau(out(j - 1))) < 0) { out(j) = out(j - 1); j -= 1 }
        out(j) = i
        if (len < m) len += 1
      }
      i += 1
    }
    out
  }
}
