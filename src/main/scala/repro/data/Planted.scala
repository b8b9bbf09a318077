package repro.data

import repro.core.Hist

/** Helpers for constructing per-candidate distributions at controlled l1
  * distances from a base shape. Used by the dataset builders to plant
  * candidate populations with known strata: a few candidates close to
  * the query target, a boundary band, and a far bulk — mirroring the
  * distance structure the paper's real datasets exhibit.
  */
object Planted {

  /** Convex mixture (1-lam)*base + lam*alt. Its l1 distance from `base`
    * is exactly lam * ||base - alt||_1, so `lam` dials distance linearly.
    */
  def mix(base: Array[Double], alt: Array[Double], lam: Double): Array[Double] = {
    require(base.length == alt.length)
    require(lam >= 0.0 && lam <= 1.0, s"lam out of [0,1]: $lam")
    Array.tabulate(base.length)(i => (1.0 - lam) * base(i) + lam * alt(i))
  }

  /** A sharply peaked distribution: `mass` at bin `at`, remainder uniform.
    * Far (l1 close to 2*mass) from any spread-out base shape.
    */
  def peaked(vx: Int, at: Int, mass: Double = 0.9): Array[Double] = {
    require(vx >= 1 && at >= 0 && at < vx)
    require(mass > 0 && mass <= 1.0)
    val rest = (1.0 - mass) / vx
    Array.tabulate(vx)(i => if (i == at) mass + rest else rest)
  }

  /** A smooth "daily activity" shape over `vx` bins: two Gaussian bumps.
    * Stands in for e.g. the bimodal flight-departure-hour distribution.
    */
  def bimodal(vx: Int, mu1: Double, mu2: Double, sigma: Double = 2.5): Array[Double] = {
    def bump(mu: Double)(i: Int) = math.exp(-math.pow(i - mu, 2) / (2 * sigma * sigma))
    Hist.normalize(Array.tabulate(vx)(i => bump(mu1)(i) + bump(mu2)(i) + 0.02))
  }
}
