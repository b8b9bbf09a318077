package repro.core

/** Concentration bounds relating samples taken to l1 deviation of an
  * empirical discrete distribution from its true distribution.
  *
  * The central result is Theorem 1 of the paper: after `n` i.i.d. samples
  * from a distribution with support size `vx`, the empirical distribution
  * is within l1 distance
  *
  *   eps = sqrt( (2 * vx / n) * log(2 / delta^(1/vx)) )
  *
  * of the truth with probability > 1 - delta. Equivalently
  *
  *   delta = 2^vx * exp(-eps^2 * n / 2)   (clamped to [0, 1]).
  *
  * All arithmetic is done in log space so that supports as large as
  * |V_X| = thousands do not overflow `2^vx`.
  *
  * Sampling without replacement (FastMatch's shuffled-scan regime) only
  * tightens the Lipschitz constant in the McDiarmid step, so these
  * with-replacement bounds remain valid upper bounds (Section 4.2,
  * Challenge 1 discussion).
  */
object Bounds {
  private val Ln2 = math.log(2.0)

  /** Theorem 1 solved for delta: upper bound on the failure probability
    * that the empirical distribution deviates by >= eps after n samples.
    * delta = min(1, 2^vx * exp(-eps^2 n / 2)), computed in log space.
    */
  def deltaFor(n: Long, eps: Double, vx: Int): Double = {
    require(vx >= 1, s"vx must be >= 1, got $vx")
    if (n == 0L || eps <= 0.0) 1.0
    else {
      val logDelta = vx * Ln2 - eps * eps * n / 2.0
      if (logDelta >= 0.0) 1.0 else math.exp(logDelta)
    }
  }
}
