package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Hist

class PlantedSpec extends AnyFunSuite {

  private def isDistribution(p: Array[Double]): Boolean =
    p.forall(v => v >= 0.0 && v <= 1.0) && math.abs(p.sum - 1.0) < 1e-9

  test("mix produces a distribution") {
    val base = Hist.uniform(5)
    val alt = Planted.peaked(5, 2)
    assert(isDistribution(Planted.mix(base, alt, 0.3)))
  }

  test("mix distance from base is exactly lam * d(base, alt)") {
    val base = Hist.uniform(8)
    val alt = Planted.peaked(8, 3)
    val d = Hist.l1(base, alt)
    for (lam <- Seq(0.0, 0.1, 0.5, 1.0)) {
      val got = Hist.l1(Planted.mix(base, alt, lam), base)
      assert(math.abs(got - lam * d) < 1e-12, s"lam=$lam")
    }
  }

  test("mix validates lam range") {
    intercept[IllegalArgumentException](Planted.mix(Hist.uniform(3), Hist.uniform(3), 1.5))
    intercept[IllegalArgumentException](Planted.mix(Hist.uniform(3), Hist.uniform(3), -0.1))
  }

  test("peaked concentrates the requested mass") {
    val p = Planted.peaked(10, 4, 0.9)
    assert(isDistribution(p))
    assert(p(4) > 0.9)
    assert(p.zipWithIndex.filter(_._2 != 4).forall(_._1 < 0.02))
  }

  test("peaked is far from uniform") {
    val p = Planted.peaked(24, 0, 0.92)
    assert(Hist.l1(p, Hist.uniform(24)) > 1.5)
  }

  test("bimodal is a distribution with peaks near the modes") {
    val p = Planted.bimodal(24, 8, 17)
    assert(isDistribution(p))
    assert(p(8) > p(12) && p(17) > p(12))
    assert(p(8) > p(0) && p(17) > p(23))
  }

  test("two different bimodal shapes are far apart") {
    val h0 = Planted.bimodal(24, 8, 17)
    val h1 = Planted.bimodal(24, 2, 4, sigma = 1.5)
    assert(Hist.l1(h0, h1) > 1.0)
  }
}
