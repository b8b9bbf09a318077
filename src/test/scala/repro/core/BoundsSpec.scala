package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BoundsSpec extends AnyFunSuite {

  test("epsFor matches the closed form of Theorem 1") {
    // eps = sqrt((2*vx/n) * log(2 / delta^(1/vx)))
    val vx = 24; val n = 10000L; val delta = 0.01
    val expected = math.sqrt((2.0 * vx / n) * math.log(2.0 / math.pow(delta, 1.0 / vx)))
    assert(math.abs(SampleBounds.epsFor(n, delta, vx) - expected) < 1e-12)
  }

  test("epsFor is infinite with zero samples") {
    assert(SampleBounds.epsFor(0L, 0.01, 5).isPosInfinity)
  }

  test("epsFor decreases in n") {
    val e1 = SampleBounds.epsFor(100, 0.01, 10)
    val e2 = SampleBounds.epsFor(1000, 0.01, 10)
    val e3 = SampleBounds.epsFor(100000, 0.01, 10)
    assert(e1 > e2 && e2 > e3)
  }

  test("epsFor increases in vx") {
    assert(SampleBounds.epsFor(1000, 0.01, 2) < SampleBounds.epsFor(1000, 0.01, 50))
  }

  test("epsFor decreases as delta grows (weaker guarantee, smaller eps)") {
    assert(SampleBounds.epsFor(1000, 0.1, 10) < SampleBounds.epsFor(1000, 0.001, 10))
  }

  test("epsFor is insensitive to delta for large vx (paper Section 3.4)") {
    // the 1/vx exponent damps the delta dependence
    val a = SampleBounds.epsFor(10000, 0.1, 161)
    val b = SampleBounds.epsFor(10000, 0.001, 161)
    assert((b - a) / a < 0.05)
  }

  test("deltaFor inverts epsFor") {
    for (vx <- Seq(2, 7, 24, 161); n <- Seq(500L, 5000L, 50000L); delta <- Seq(0.5, 0.01, 1e-4)) {
      val eps = SampleBounds.epsFor(n, delta, vx)
      assert(math.abs(Bounds.deltaFor(n, eps, vx) - delta) < 1e-9,
        s"round-trip failed at vx=$vx n=$n delta=$delta")
    }
  }

  test("deltaFor is 1 with zero samples or zero eps") {
    assert(Bounds.deltaFor(0L, 0.5, 10) == 1.0)
    assert(Bounds.deltaFor(100L, 0.0, 10) == 1.0)
  }

  test("deltaFor clamps to 1 when the exponent is non-negative") {
    // tiny n, huge vx: 2^vx dominates
    assert(Bounds.deltaFor(1L, 0.1, 100) == 1.0)
  }

  test("deltaFor decreases in n and eps") {
    assert(Bounds.deltaFor(2000, 0.2, 10) < Bounds.deltaFor(1000, 0.2, 10))
    assert(Bounds.deltaFor(1000, 0.4, 10) < Bounds.deltaFor(1000, 0.2, 10))
  }

  test("deltaFor never exceeds 1 and never goes negative") {
    for (n <- Seq(0L, 1L, 10L, 100000L); eps <- Seq(0.0, 0.01, 1.0, 2.0); vx <- Seq(1, 2, 500)) {
      val d = Bounds.deltaFor(n, eps, vx)
      assert(d >= 0.0 && d <= 1.0)
    }
  }

  test("samplesFor achieves the requested (eps, delta)") {
    for (vx <- Seq(2, 7, 24); eps <- Seq(0.06, 0.15); delta <- Seq(0.01, 1e-4)) {
      val n = SampleBounds.samplesFor(eps, delta, vx)
      assert(Bounds.deltaFor(n, eps, vx) <= delta + 1e-12)
      // minimality up to integer rounding
      assert(Bounds.deltaFor(math.max(0L, n - 2), eps, vx) > delta)
    }
  }

  test("samplesFor scales as 1/eps^2") {
    val n1 = SampleBounds.samplesFor(0.1, 0.01, 24)
    val n2 = SampleBounds.samplesFor(0.05, 0.01, 24)
    assert(math.abs(n2.toDouble / n1 - 4.0) < 0.01)
  }

  test("samplesFor scales near-linearly in vx (information-theoretic rate)") {
    val n1 = SampleBounds.samplesFor(0.1, 0.01, 50)
    val n2 = SampleBounds.samplesFor(0.1, 0.01, 100)
    val ratio = n2.toDouble / n1
    assert(ratio > 1.5 && ratio < 2.1, s"ratio $ratio")
  }

  test("Theorem 1 needs fewer samples than the prior-work bound (Figure 4)") {
    // paper: "our bound typically requires half or fewer samples" at
    // delta = 0.01 for moderate support sizes
    for (vx <- Seq(2, 7, 24, 64, 161)) {
      val ours = SampleBounds.samplesFor(0.1, 0.01, vx)
      val prior = SampleBounds.waggonerSamplesFor(0.1, 0.01, vx)
      assert(ours < prior, s"vx=$vx: ours=$ours prior=$prior")
    }
  }

  test("bound ratio to prior work is eps-free") {
    val r1 = SampleBounds.samplesFor(0.1, 0.01, 24).toDouble / SampleBounds.waggonerSamplesFor(0.1, 0.01, 24)
    val r2 = SampleBounds.samplesFor(0.05, 0.01, 24).toDouble / SampleBounds.waggonerSamplesFor(0.05, 0.01, 24)
    assert(math.abs(r1 - r2) < 0.01)
  }

  test("waggonerEpsFor decreases in n") {
    assert(SampleBounds.waggonerEpsFor(10000, 0.01, 24) < SampleBounds.waggonerEpsFor(1000, 0.01, 24))
  }

  test("empirical validation: Theorem 1 deviation holds at the stated rate") {
    // Draw from a known distribution; the empirical l1 deviation should
    // exceed epsFor(n, delta) in (far) fewer than delta fraction of trials.
    val rng = new java.util.Random(42)
    val p = Array(0.5, 0.3, 0.15, 0.05)
    val cdf = p.scanLeft(0.0)(_ + _).tail
    val n = 2000; val trials = 300; val delta = 0.05
    val eps = SampleBounds.epsFor(n, delta, p.length)
    var fails = 0
    for (_ <- 0 until trials) {
      val counts = new Array[Long](p.length)
      for (_ <- 0 until n) {
        val u = rng.nextDouble()
        var i = 0; while (cdf(i) < u) i += 1
        counts(i) += 1
      }
      if (Hist.l1(Hist.normalize(counts), p) >= eps) fails += 1
    }
    assert(fails <= math.max(1, (trials * delta).toInt),
      s"deviation bound violated in $fails/$trials trials at eps=$eps")
  }

  test("argument validation") {
    intercept[IllegalArgumentException](SampleBounds.epsFor(10, 0.0, 5))
    intercept[IllegalArgumentException](SampleBounds.epsFor(10, 1.0, 5))
    intercept[IllegalArgumentException](SampleBounds.epsFor(10, 0.5, 0))
    intercept[IllegalArgumentException](SampleBounds.samplesFor(0.0, 0.5, 5))
    intercept[IllegalArgumentException](Bounds.deltaFor(10, 0.1, 0))
  }
}
