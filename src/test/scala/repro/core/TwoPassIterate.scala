package repro.core

/** The statistics iteration as two passes, the form `Deviations.iterate`
  * had before it refreshed tau and selected the top k + 1 in one sweep:
  * `refreshAllTau`, then a selection over the whole tau array and the
  * deviation assignment. Kept as the oracle the fused pass must match bit
  * for bit.
  */
object TwoPassIterate {

  def apply(state: HistSimState, k: Int, eps: Double, delta: Double): Iteration = {
    state.refreshAllTau()
    val nz = state.nCandidates
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

  /** The `m` smallest taus' indices in stable order, by insertion. */
  private def smallest(tau: Array[Double], m: Int): Array[Int] = {
    val out = new Array[Int](m)
    if (m == 0) return out
    var len = 0
    var i = 0
    while (i < tau.length) {
      val t = tau(i)
      if (len < m || java.lang.Double.compare(t, tau(out(m - 1))) < 0) {
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
