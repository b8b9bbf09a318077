package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Property-based checks on the concentration bounds, driven by raw
  * scalacheck (the scalatest bridge artifact is not available offline).
  */
class BoundsPropSpec extends AnyFunSuite {

  private val vxGen = Gen.choose(1, 300)
  private val nGen = Gen.choose(1L, 1000000L)
  private val deltaGen = Gen.choose(1e-6, 0.999)
  private val epsGen = Gen.choose(1e-3, 2.0)

  private def check(name: String, prop: Prop): Unit = {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(200)
      .withInitialSeed(org.scalacheck.rng.Seed(12345L))
    val res = SCTest.check(params, prop)
    assert(res.passed, s"property '$name' failed: ${res.status}")
  }

  test("property: deltaFor(epsFor(n, delta)) == delta whenever unclamped") {
    check("roundtrip", Prop.forAll(nGen, deltaGen, vxGen) { (n, delta, vx) =>
      val eps = SampleBounds.epsFor(n, delta, vx)
      math.abs(Bounds.deltaFor(n, eps, vx) - delta) < 1e-6
    })
  }

  test("property: deltaFor is within [0, 1]") {
    check("range", Prop.forAll(nGen, epsGen, vxGen) { (n, eps, vx) =>
      val d = Bounds.deltaFor(n, eps, vx)
      d >= 0.0 && d <= 1.0
    })
  }

  test("property: deltaFor is monotone non-increasing in n") {
    check("mono-n", Prop.forAll(nGen, epsGen, vxGen) { (n, eps, vx) =>
      Bounds.deltaFor(n + 1000, eps, vx) <= Bounds.deltaFor(n, eps, vx)
    })
  }

  test("property: deltaFor is monotone non-increasing in eps") {
    check("mono-eps", Prop.forAll(nGen, epsGen, vxGen) { (n, eps, vx) =>
      Bounds.deltaFor(n, eps + 0.1, vx) <= Bounds.deltaFor(n, eps, vx)
    })
  }

  test("property: samplesFor suffices per deltaFor") {
    check("suffices", Prop.forAll(epsGen, deltaGen, vxGen) { (eps, delta, vx) =>
      Bounds.deltaFor(SampleBounds.samplesFor(eps, delta, vx), eps, vx) <= delta + 1e-9
    })
  }

  test("property: epsFor is monotone non-increasing in n") {
    check("eps-mono-n", Prop.forAll(nGen, deltaGen, vxGen) { (n, delta, vx) =>
      SampleBounds.epsFor(n + 500, delta, vx) <= SampleBounds.epsFor(n, delta, vx)
    })
  }

  test("property: normalize + l1 distance stays within [0, 2]") {
    val countsGen = Gen.nonEmptyListOf(Gen.choose(0L, 1000L)).map(_.toArray)
    check("l1-range", Prop.forAll(countsGen, countsGen) { (a, b) =>
      val n = math.max(a.length, b.length)
      val ap = Hist.normalize(a.padTo(n, 0L))
      val bp = Hist.normalize(b.padTo(n, 0L))
      val d = Hist.l1(ap, bp)
      d >= 0.0 && d <= 2.0 + 1e-9
    })
  }
}
