package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HistSimStateSpec extends AnyFunSuite {

  private def mkState(vz: Int = 4, target: Array[Double] = Hist.uniform(3)) =
    new HistSimState(vz, target)

  test("initial state: zero samples, tau = distance of empty histogram") {
    val s = mkState()
    assert(s.n.forall(_ == 0L))
    assert(s.n.sum == 0L)
    // empty histogram normalizes to zero vector; l1 from a distribution = 1
    assert(s.tau.forall(t => math.abs(t - 1.0) < 1e-12))
    assert(s.exact.forall(!_))
  }

  test("add accumulates counts and samples") {
    val s = mkState()
    s.add(1, 0, 5); s.add(1, 2, 3); s.add(2, 1, 7)
    assert(s.n(1) == 8 && s.n(2) == 7 && s.n(0) == 0)
    assert(s.hist(1).sameElements(Array(5L, 0L, 3L)))
    assert(s.n.sum == 15)
  }

  test("add rejects negative counts") {
    intercept[IllegalArgumentException](mkState().add(0, 0, -1))
  }

  test("add rejects a candidate or group out of range, naming both") {
    val s = mkState(vz = 4, target = Hist.uniform(3))
    for ((z, x) <- Seq((4, 0), (-1, 0), (0, 3), (0, -1), (Int.MinValue, 0), (0, Int.MaxValue))) {
      val e = intercept[IllegalArgumentException](s.add(z, x, 1))
      assert(e.getMessage.contains(s"candidate $z, group $x"), e.getMessage)
    }
    // nothing landed in a neighbour's histogram
    assert(s.counts.forall(_ == 0L) && s.n.forall(_ == 0L))
  }

  test("refreshTau only updates touched candidates") {
    val s = mkState()
    s.add(0, 0, 10)
    s.add(1, 1, 10)
    s.refreshTau(Seq(0))
    // candidate 0 refreshed: all mass on group 0 vs uniform(3) => l1 = 4/3
    assert(math.abs(s.tau(0) - 4.0 / 3) < 1e-12)
    // candidate 1 not refreshed: still the initial value
    assert(math.abs(s.tau(1) - 1.0) < 1e-12)
    s.refreshTau(Seq(1))
    assert(math.abs(s.tau(1) - 4.0 / 3) < 1e-12)
  }

  test("incremental refreshTau agrees with refreshAllTau") {
    val rng = new java.util.Random(7)
    val s = mkState(vz = 10, target = Hist.normalize(Array(1.0, 2.0, 3.0, 4.0)))
    val touched = scala.collection.mutable.Set.empty[Int]
    for (_ <- 0 until 500) {
      val z = rng.nextInt(10); val x = rng.nextInt(4)
      s.add(z, x, 1 + rng.nextInt(5)); touched += z
    }
    s.refreshTau(touched)
    val incremental = s.tau.clone()
    s.refreshAllTau()
    assert(incremental.zip(s.tau).forall { case (a, b) => java.lang.Double.compare(a, b) == 0 })
  }

  test("tau converges to true distance as samples accumulate") {
    val target = Array(0.5, 0.3, 0.2)
    val s = mkState(vz = 1, target = target)
    // feed counts exactly proportional to the target: distance -> 0
    s.add(0, 0, 5000); s.add(0, 1, 3000); s.add(0, 2, 2000)
    s.refreshTau(Seq(0))
    assert(s.tau(0) < 1e-12)
  }

  test("markExact flags a candidate") {
    val s = mkState()
    s.markExact(2)
    assert(s.exact(2) && !s.exact(0))
  }

  test("rejects empty target") {
    intercept[IllegalArgumentException](new HistSimState(3, Array.empty[Double]))
  }

  test("refreshTau over an array prefix agrees with the Iterable overload") {
    // the refresh over the flat counts array is iterate's fused pass: after
    // adds to the candidates in a prefix of `touched`, it must give them,
    // bit for bit, the tau that the Iterable overload gives
    val rng = new java.util.Random(13)
    val target = Hist.normalize(Array(1.0, 2.0, 3.0, 4.0))
    val a = mkState(vz = 20, target = target)
    val b = mkState(vz = 20, target = target)
    for (_ <- 0 until 300) {
      val z = rng.nextInt(20); val x = rng.nextInt(4); val c = 1 + rng.nextInt(5)
      a.add(z, x, c); b.add(z, x, c)
    }
    Deviations.iterate(a, 3, 0.1, 0.01)
    b.refreshTau(0 until 20)
    assert(a.tau.indices.forall(z => java.lang.Double.compare(a.tau(z), b.tau(z)) == 0))
    val touched = Array(3, 0, 17, 9, 12, 5)
    val len = 4 // entries past len get no adds, so neither state may change their tau
    val before12 = a.tau(12); val before5 = a.tau(5)
    for (i <- 0 until len) { a.add(touched(i), i % 4, 1 + i); b.add(touched(i), i % 4, 1 + i) }
    Deviations.iterate(a, 3, 0.1, 0.01)
    b.refreshTau(touched.take(len).toSeq)
    assert(a.tau.indices.forall(z => java.lang.Double.compare(a.tau(z), b.tau(z)) == 0))
    assert(a.tauN.sameElements(a.n) && b.tauN.sameElements(b.n))
    assert(a.tau(12) == before12 && a.tau(5) == before5)
  }

  test("iterate refreshes exactly the candidates added since the previous iterate") {
    val rng = new java.util.Random(13)
    val target = Hist.normalize(Array(1.0, 2.0, 3.0, 4.0))
    val s = mkState(vz = 20, target = target)
    for (_ <- 0 until 300) s.add(rng.nextInt(20), rng.nextInt(4), 1 + rng.nextInt(5))
    Deviations.iterate(s, 3, 0.1, 0.01)
    assert(s.tauN.sameElements(s.n))
    // poison every tau: only the candidates added to next may change
    java.util.Arrays.fill(s.tau, -1.0)
    s.add(12, 0, 1); s.add(5, 1, 2); s.add(12, 3, 2)
    // a zero count leaves the counts, and so tau, as they were
    s.add(7, 2, 0)
    Deviations.iterate(s, 3, 0.1, 0.01)
    assert(s.tauN.sameElements(s.n))
    val refreshed = s.tau.indices.filter(z => s.tau(z) != -1.0).toSet
    assert(refreshed == Set(5, 12))
    for (z <- refreshed) assert(java.lang.Double.compare(s.tau(z), Hist.dist(s.hist(z), target)) == 0)
  }

  test("refreshAllTau and refreshTau record n at refresh") {
    val s = mkState(vz = 5)
    (0 until 5).foreach(z => s.add(z, z % 3, 1 + z))
    s.refreshTau(Seq(1, 3))
    assert(s.tauN.sameElements(Array(0L, 2L, 0L, 4L, 0L)))
    s.refreshAllTau()
    assert(s.tauN.sameElements(s.n))
  }
}
