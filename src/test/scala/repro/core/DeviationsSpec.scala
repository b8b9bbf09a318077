package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DeviationsSpec extends AnyFunSuite {

  /** Build a state with prescribed taus and sample counts. */
  private def stateWith(taus: Array[Double], ns: Array[Long], vx: Int = 4): HistSimState = {
    val s = new HistSimState(taus.length, Hist.uniform(vx))
    taus.indices.foreach { i => s.tau(i) = taus(i); s.n(i) = ns(i) }
    s
  }

  test("matching is the k candidates with smallest tau, sorted ascending") {
    val s = stateWith(Array(0.5, 0.1, 0.3, 0.9, 0.2), Array.fill(5)(100L))
    val it = Deviations.iterate(s, k = 2, eps = 0.1, delta = 0.01)
    assert(it.matching.sameElements(Array(1, 4)))
  }

  test("split point is halfway between k-th and (k+1)-th tau") {
    val s = stateWith(Array(0.1, 0.2, 0.6, 0.8), Array.fill(4)(100L))
    val it = Deviations.iterate(s, k = 2, eps = 0.1, delta = 0.01)
    assert(math.abs(it.splitPoint - 0.4) < 1e-12)
  }

  test("eps assignment satisfies Lemma 2 constraint 1") {
    // max_{i in M}(tau_i + eps_i) - max(min_{j not in M}(tau_j - eps_j), 0) <= eps
    val s = stateWith(Array(0.05, 0.22, 0.3, 0.55, 1.1), Array.fill(5)(1000L))
    val eps = 0.2
    val it = Deviations.iterate(s, k = 2, eps = eps, delta = 0.01)
    val inM = it.matching.toSet
    val lhs = it.matching.map(i => s.tau(i) + it.eps(i)).max
    val rhs = math.max((0 until 5).filterNot(inM).map(j => s.tau(j) - it.eps(j)).min, 0.0)
    assert(lhs - rhs <= eps + 1e-12)
  }

  test("eps for matching candidates never exceeds eps (constraint 2)") {
    val s = stateWith(Array(0.01, 0.02, 5e-3, 0.9, 0.95), Array.fill(5)(10L))
    val it = Deviations.iterate(s, k = 3, eps = 0.07, delta = 0.01)
    it.matching.foreach(i => assert(it.eps(i) <= 0.07 + 1e-12))
  }

  test("eps values are non-negative") {
    val s = stateWith(Array(0.3, 0.3, 0.3, 0.3), Array.fill(4)(50L))
    val it = Deviations.iterate(s, k = 2, eps = 0.1, delta = 0.01)
    assert(it.eps.forall(_ >= 0.0))
  }

  test("ties at the boundary yield zero-width eps, not negative") {
    // all taus identical: s = tau, eps_j for non-M = tau - (s - eps/2) = eps/2
    val s = stateWith(Array.fill(4)(0.5), Array.fill(4)(100L))
    val it = Deviations.iterate(s, k = 2, eps = 0.1, delta = 0.01)
    val inM = it.matching.toSet
    (0 until 4).filterNot(inM).foreach(j => assert(math.abs(it.eps(j) - 0.05) < 1e-12))
    it.matching.foreach(i => assert(math.abs(it.eps(i) - 0.05) < 1e-12))
  }

  test("delta uses Theorem 1 and respects exactness") {
    val s = stateWith(Array(0.1, 0.5, 0.9), Array(100L, 200L, 0L))
    s.markExact(1)
    val it = Deviations.iterate(s, k = 1, eps = 0.2, delta = 0.01)
    assert(it.delta(1) == 0.0)                  // exact => no deviation risk
    assert(it.delta(2) == 1.0)                  // zero samples => vacuous bound
    assert(math.abs(it.delta(0) - Bounds.deltaFor(100L, it.eps(0), 4)) < 1e-15)
  }

  test("deltaUpper is the sum and deltaMax the max of per-candidate deltas") {
    val s = stateWith(Array(0.1, 0.4, 0.8), Array(5000L, 5000L, 5000L))
    val it = Deviations.iterate(s, k = 1, eps = 0.3, delta = 0.01)
    assert(math.abs(it.deltaUpper - it.delta.sum) < 1e-15)
    assert(it.deltaMax == it.delta.max)
  }

  test("active set is candidates with delta above delta/|V_Z|") {
    val s = stateWith(Array(0.05, 0.5, 1.4), Array(400L, 400L, 400L))
    val delta = 0.01
    val it = Deviations.iterate(s, k = 1, eps = 0.2, delta = delta)
    (0 until 3).foreach { i =>
      assert(it.active(i) == (it.delta(i) > delta / 3))
    }
    // the far candidate gets a huge eps and should be inactive sooner
    assert(it.eps(2) > it.eps(1))
  }

  test("k >= |V_Z|: everyone matches, reconstruction cap only") {
    val s = stateWith(Array(0.3, 0.6), Array(100L, 100L))
    val it = Deviations.iterate(s, k = 5, eps = 0.1, delta = 0.01)
    assert(it.matching.length == 2)
    assert(it.splitPoint.isNaN)
    assert(it.eps.forall(e => math.abs(e - 0.1) < 1e-12))
  }

  test("more samples shrink deltaUpper monotonically") {
    val taus = Array(0.05, 0.3, 0.7, 1.2)
    val d1 = Deviations.iterate(stateWith(taus, Array.fill(4)(100L)), 1, 0.2, 0.01).deltaUpper
    val d2 = Deviations.iterate(stateWith(taus, Array.fill(4)(1000L)), 1, 0.2, 0.01).deltaUpper
    val d3 = Deviations.iterate(stateWith(taus, Array.fill(4)(100000L)), 1, 0.2, 0.01).deltaUpper
    assert(d1 >= d2 && d2 >= d3)
  }

  test("with enough samples and clear gaps the criterion is met") {
    val s = stateWith(Array(0.02, 0.05, 0.8, 0.9, 1.2), Array.fill(5)(2000000L))
    val it = Deviations.iterate(s, k = 2, eps = 0.1, delta = 0.01)
    assert(it.deltaUpper <= 0.01)
    assert(!it.active.exists(identity))
  }

  test("SlowMatch-style max criterion is harder than the sum criterion") {
    // find a sample size where sum passes but max fails
    val taus = Array(0.02, 0.5, 0.9, 1.3, 1.6)
    val delta = 0.01
    var found = false
    var n = 100L
    while (n < 10000000L && !found) {
      val it = Deviations.iterate(stateWith(taus, Array(n, n, n / 10, n / 10, n / 10)), 1, 0.1, delta)
      if (it.deltaUpper <= delta && it.deltaMax > delta / taus.length) found = true
      n = (n * 1.3).toLong
    }
    assert(found, "expected a regime where SumDelta holds but MaxDelta does not")
  }

  test("argument validation") {
    val s = stateWith(Array(0.1, 0.2), Array(10L, 10L))
    intercept[IllegalArgumentException](Deviations.iterate(s, 0, 0.1, 0.01))
    intercept[IllegalArgumentException](Deviations.iterate(s, 1, 0.0, 0.01))
    intercept[IllegalArgumentException](Deviations.iterate(s, 1, 0.1, 0.0))
  }

  /** Random taus drawn from a few levels, so ties are common. */
  private def tiedTaus(rng: java.util.Random, n: Int): Array[Double] = {
    val levels = Array(0.0, 0.1, 0.25, 0.25 + 1e-12, 0.5, 1.0, 1.75)
    Array.fill(n)(levels(rng.nextInt(levels.length)))
  }

  test("selection equals the prefix of a stable sort by tau, ties by lower index") {
    val rng = new java.util.Random(3)
    for (n <- Seq(1, 2, 3, 7, 50, 2000); m <- Seq(0, 1, 2, 3, 5, n).filter(_ <= n); _ <- 0 until 5) {
      val tau = tiedTaus(rng, n)
      val want = Array.range(0, n).sortBy(tau).take(m)
      assert(Deviations.smallest(tau, m).sameElements(want), s"n=$n m=$m")
    }
  }

  test("matching and splitPoint equal those of a full stable sort, k <= n and k >= n") {
    val rng = new java.util.Random(5)
    for (n <- Seq(1, 2, 3, 5, 2000); k <- Seq(1, 2, 3, 5, n - 1, n, n + 1, n + 10).filter(_ >= 1); _ <- 0 until 4) {
      val s = stateWith(tiedTaus(rng, n), Array.fill(n)(100L))
      val it = Deviations.iterate(s, k, 0.1, 0.01)
      val order = Array.range(0, n).sortBy(s.tau)
      val kk = math.min(k, n)
      assert(it.matching.sameElements(order.take(kk)), s"n=$n k=$k")
      val wantSplit = if (kk >= n) Double.NaN else (s.tau(order(kk - 1)) + s.tau(order(kk))) / 2.0
      assert(java.lang.Double.compare(it.splitPoint, wantSplit) == 0, s"n=$n k=$k")
    }
  }

  test("selection rejects m outside [0, n]") {
    intercept[IllegalArgumentException](Deviations.smallest(Array(0.1, 0.2), 3))
    intercept[IllegalArgumentException](Deviations.smallest(Array(0.1, 0.2), -1))
  }
}
