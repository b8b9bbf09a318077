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
    assert(s.counts(1).sameElements(Array(5L, 0L, 3L)))
    assert(s.n.sum == 15)
  }

  test("add rejects negative counts") {
    intercept[IllegalArgumentException](mkState().add(0, 0, -1))
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
    val rng = new java.util.Random(13)
    val target = Hist.normalize(Array(1.0, 2.0, 3.0, 4.0))
    val a = mkState(vz = 20, target = target)
    val b = mkState(vz = 20, target = target)
    for (_ <- 0 until 300) {
      val z = rng.nextInt(20); val x = rng.nextInt(4); val c = 1 + rng.nextInt(5)
      a.add(z, x, c); b.add(z, x, c)
    }
    a.add(12, 0, 1); b.add(12, 0, 1); a.add(5, 1, 1); b.add(5, 1, 1)
    val touched = Array(3, 0, 17, 9, 12, 5)
    val len = 4 // entries past len must not be refreshed
    a.refreshTau(touched, len)
    b.refreshTau(touched.take(len).toSeq)
    assert(a.tau.indices.forall(z => java.lang.Double.compare(a.tau(z), b.tau(z)) == 0))
    val unsampled = mkState(vz = 1, target = target).tau(0)
    assert(a.tau(12) == unsampled && a.tau(5) == unsampled)
  }
}
