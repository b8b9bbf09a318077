package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HistSpec extends AnyFunSuite {

  test("normalize counts sums to 1") {
    val p = Hist.normalize(Array(1L, 2L, 3L, 4L))
    assert(math.abs(p.sum - 1.0) < 1e-12)
    assert(p.sameElements(Array(0.1, 0.2, 0.3, 0.4)))
  }

  test("normalize of all-zero counts is the zero vector") {
    val p = Hist.normalize(Array(0L, 0L, 0L))
    assert(p.forall(_ == 0.0))
  }

  test("normalize weights rejects non-positive mass") {
    intercept[IllegalArgumentException](Hist.normalize(Array(0.0, 0.0)))
  }

  test("normalize weights divides by total") {
    val p = Hist.normalize(Array(2.0, 6.0))
    assert(p(0) === 0.25 && p(1) === 0.75)
  }

  test("l1 of identical vectors is 0") {
    assert(Hist.l1(Array(0.5, 0.5), Array(0.5, 0.5)) == 0.0)
  }

  test("l1 of disjoint distributions is 2") {
    assert(math.abs(Hist.l1(Array(1.0, 0.0), Array(0.0, 1.0)) - 2.0) < 1e-12)
  }

  test("l1 is symmetric") {
    val a = Array(0.1, 0.2, 0.7); val b = Array(0.3, 0.3, 0.4)
    assert(Hist.l1(a, b) == Hist.l1(b, a))
  }

  test("l1 satisfies triangle inequality on a sample") {
    val a = Array(0.1, 0.9); val b = Array(0.5, 0.5); val c = Array(0.8, 0.2)
    assert(Hist.l1(a, c) <= Hist.l1(a, b) + Hist.l1(b, c) + 1e-12)
  }

  test("l1 rejects length mismatch") {
    intercept[IllegalArgumentException](Hist.l1(Array(1.0), Array(0.5, 0.5)))
  }

  test("dist normalizes counts before comparing") {
    // (2, 2) and the uniform target are identical distributions
    assert(Hist.dist(Array(2L, 2L), Hist.uniform(2)) == 0.0)
    // scale invariance
    assert(Hist.dist(Array(10L, 30L), Array(0.25, 0.75)) < 1e-12)
  }

  test("dist of empty histogram from any distribution is 1") {
    assert(math.abs(Hist.dist(Array(0L, 0L, 0L), Hist.uniform(3)) - 1.0) < 1e-12)
  }

  test("uniform has equal entries summing to 1") {
    val u = Hist.uniform(7)
    assert(u.forall(v => math.abs(v - 1.0 / 7) < 1e-15))
    assert(math.abs(u.sum - 1.0) < 1e-12)
  }

  test("l1 distance between distributions is at most 2") {
    val a = Hist.normalize(Array(5L, 0L, 0L))
    val b = Hist.normalize(Array(0L, 3L, 3L))
    assert(Hist.l1(a, b) <= 2.0 + 1e-12)
  }

  test("dist is bit-equal to l1 of the normalized counts, all-zero counts included") {
    val rng = new java.util.Random(11)
    for (vx <- Seq(1, 2, 3, 17, 300); _ <- 0 until 20) {
      val counts = Array.fill(vx)(if (rng.nextInt(3) == 0) 0L else rng.nextInt(1000000).toLong)
      val target = Hist.normalize(Array.fill(vx)(rng.nextDouble() + 1e-3))
      for (c <- Seq(counts, new Array[Long](vx)))
        assert(java.lang.Double.compare(Hist.dist(c, target), Hist.l1(Hist.normalize(c), target)) == 0,
          s"vx=$vx counts=${c.mkString(",")}")
    }
  }

  test("dist rejects length mismatch") {
    intercept[IllegalArgumentException](Hist.dist(Array(1L), Array(0.5, 0.5)))
  }
}
