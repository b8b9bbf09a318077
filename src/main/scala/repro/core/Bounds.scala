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

  /** Theorem 1: deviation eps achievable with failure probability
    * `delta` after `n` samples over support size `vx`.
    * Returns Double.PositiveInfinity when n == 0.
    */
  def epsFor(n: Long, delta: Double, vx: Int): Double = {
    require(vx >= 1, s"vx must be >= 1, got $vx")
    require(delta > 0 && delta < 1, s"delta must be in (0,1), got $delta")
    if (n == 0L) Double.PositiveInfinity
    // log(2 / delta^(1/vx)) = ln2 - ln(delta)/vx; times 2*vx/n inside sqrt
    else math.sqrt((2.0 / n) * (vx * Ln2 - math.log(delta)))
  }

  /** Inverse of Theorem 1: upper bound on the failure probability that
    * the empirical distribution deviates by >= eps after n samples.
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

  /** Samples needed for (eps, delta) deviation per Theorem 1 (ceil). */
  def samplesFor(eps: Double, delta: Double, vx: Int): Long = {
    require(eps > 0, s"eps must be > 0, got $eps")
    require(delta > 0 && delta < 1, s"delta must be in (0,1), got $delta")
    math.ceil((2.0 / (eps * eps)) * (vx * Ln2 - math.log(delta))).toLong
  }

  /** Prior-work comparator (Section 3.4 / Figure 4): the folklore bound
    * via E||p_hat - p||_1 <= sqrt(vx/n) plus a McDiarmid tail, in the
    * style of Waggoner [56]:
    *
    *   eps = sqrt(vx/n) + sqrt(2 ln(1/delta) / n)
    *
    * The paper's Theorem 1 typically requires half or fewer samples to
    * reach the same (eps, delta) level for moderate |V_X|.
    */
  def waggonerEpsFor(n: Long, delta: Double, vx: Int): Double = {
    require(vx >= 1 && delta > 0 && delta < 1)
    if (n == 0L) Double.PositiveInfinity
    else math.sqrt(vx.toDouble / n) + math.sqrt(2.0 * math.log(1.0 / delta) / n)
  }

  /** Samples needed under the prior-work bound (dependence on eps is the
    * same 1/eps^2 shape, so the ratio to [[samplesFor]] is eps-free).
    */
  def waggonerSamplesFor(eps: Double, delta: Double, vx: Int): Long = {
    require(eps > 0 && delta > 0 && delta < 1 && vx >= 1)
    val c = math.sqrt(vx.toDouble) + math.sqrt(2.0 * math.log(1.0 / delta))
    math.ceil(c * c / (eps * eps)).toLong
  }
}
