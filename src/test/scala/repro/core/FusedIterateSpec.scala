package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** `Deviations.iterate`'s fused refresh-and-select sweep against
  * [[TwoPassIterate]], bit for bit, over random batches of adds.
  */
class FusedIterateSpec extends AnyFunSuite {

  /** One run: the states are built with `exact` marked, then each batch
    * of (z, x, c) adds is applied and followed by one iteration.
    */
  private final case class Case(
      vz: Int,
      target: Array[Double],
      k: Int,
      eps: Double,
      delta: Double,
      exact: Set[Int],
      batches: List[List[(Int, Int, Int)]],
  )

  private def same(a: Double, b: Double) = java.lang.Double.compare(a, b) == 0

  /** Runs `c` on two states, fused and two-pass, and returns a mismatch
    * description, or None when every iteration agrees bit for bit.
    */
  private def mismatch(c: Case): Option[String] = {
    val fused = new HistSimState(c.vz, c.target)
    val oracle = new HistSimState(c.vz, c.target)
    c.exact.foreach { z => fused.markExact(z); oracle.markExact(z) }
    val rounds = List.empty[(Int, Int, Int)] :: c.batches // iterate before any add, too
    rounds.zipWithIndex.iterator.map { case (batch, r) =>
      batch.foreach { case (z, x, n) => fused.add(z, x, n); oracle.add(z, x, n) }
      val got = Deviations.iterate(fused, c.k, c.eps, c.delta)
      val want = TwoPassIterate(oracle, c.k, c.eps, c.delta)
      def sameArr(a: Array[Double], b: Array[Double]) = a.length == b.length && a.indices.forall(i => same(a(i), b(i)))
      val diffs = Seq(
        "matching" -> got.matching.sameElements(want.matching),
        "eps" -> sameArr(got.eps, want.eps),
        "delta" -> sameArr(got.delta, want.delta),
        "active" -> got.active.sameElements(want.active),
        "deltaUpper" -> same(got.deltaUpper, want.deltaUpper),
        "deltaMax" -> same(got.deltaMax, want.deltaMax),
        "splitPoint" -> same(got.splitPoint, want.splitPoint),
        "tau" -> sameArr(fused.tau, oracle.tau),
        "tauN caught up with n" -> fused.tauN.sameElements(fused.n),
      ).collect { case (what, false) => what }
      if (diffs.isEmpty) None else Some(s"round $r: ${diffs.mkString(", ")} differ")
    }.collectFirst { case Some(d) => d }
  }

  private def check(c: Case): Unit = mismatch(c).foreach(d => fail(d))

  /** Targets with zero bins, candidates exact from the start or never
    * sampled, k up to |V_Z| + 2, and twin candidates that receive the same
    * adds, so that tau ties (also at the k-boundary) are common.
    */
  private val caseGen: Gen[Case] = for {
    vz <- Gen.choose(1, 40)
    vx <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(2, 6))
    weights <- Gen.listOfN(vx, Gen.choose(0, 3))
    k <- Gen.choose(1, vz + 2)
    eps <- Gen.choose(0.01, 1.0)
    delta <- Gen.choose(0.001, 0.5)
    exact <- Gen.listOfN(vz, Gen.frequency(1 -> true, 4 -> false))
    unsampled <- Gen.listOfN(vz, Gen.frequency(1 -> true, 4 -> false))
    nBatches <- Gen.choose(1, 6)
    raw <- Gen.listOfN(nBatches, Gen.listOf(for {
      z <- Gen.choose(0, vz - 1); x <- Gen.choose(0, vx - 1); n <- Gen.choose(0, 5); twin <- Gen.prob(0.5)
    } yield (z, x, n, twin)))
  } yield {
    val w = if (weights.sum == 0) 1 :: weights.tail else weights
    val sampled = (z: Int) => !unsampled(z)
    val batches = raw.map(_.flatMap { case (z, x, n, twin) =>
      val t = z ^ 1 // the twin of 2i is 2i + 1
      ((z, x, n) :: (if (twin && t < vz) List((t, x, n)) else Nil)).filter(a => sampled(a._1))
    })
    Case(vz, Hist.normalize(w.map(_.toDouble).toArray), k, eps, delta,
      exact.indices.filter(exact).toSet, batches)
  }

  test("property: the fused pass equals refreshAllTau followed by the two-pass iterate") {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(500)
      .withInitialSeed(org.scalacheck.rng.Seed(20181L))
    val res = SCTest.check(params, Prop.forAll(caseGen)(c => mismatch(c).isEmpty))
    assert(res.passed, s"fused iterate differs from the two-pass oracle: ${res.status}")
  }

  test("tau ties at the k-boundary") {
    // candidates 1, 2 and 3 share one histogram; k = 2 splits the tie
    val adds = List((0, 0, 9), (1, 0, 3), (1, 1, 1), (2, 0, 6), (2, 1, 2), (3, 0, 3), (3, 1, 1), (4, 1, 5))
    for (k <- 1 to 4) check(Case(5, Array(0.75, 0.25), k, 0.1, 0.05, Set.empty, List(adds, adds.take(4), adds)))
  }

  test("k >= |V_Z|: splitPoint is NaN in both") {
    val c = Case(3, Hist.uniform(3), 3, 0.2, 0.05, Set.empty, List(List((0, 0, 4), (1, 2, 2), (2, 1, 1))))
    check(c)
    check(c.copy(k = 7))
    val it = Deviations.iterate(new HistSimState(3, Hist.uniform(3)), 7, 0.2, 0.05)
    assert(it.splitPoint.isNaN)
  }

  test("candidates with zero blocks, exact from the start") {
    check(Case(6, Hist.uniform(4), 2, 0.15, 0.05, Set(0, 3, 5),
      List(List((1, 0, 5), (2, 3, 2), (4, 1, 7)), List((1, 2, 1), (4, 1, 3)))))
  }

  test("candidates never sampled") {
    check(Case(6, Hist.uniform(4), 2, 0.15, 0.05, Set.empty,
      List(List((1, 0, 5), (2, 3, 2)), List((2, 2, 1)), Nil)))
  }

  test("vx = 1") {
    check(Case(5, Array(1.0), 2, 0.1, 0.05, Set(4), List(List((0, 0, 3), (2, 0, 1)), List((3, 0, 2)))))
  }

  test("a target with zero bins") {
    check(Case(5, Array(0.0, 0.5, 0.0, 0.5), 2, 0.1, 0.05, Set.empty,
      List(List((0, 0, 3), (1, 1, 2), (1, 3, 2), (2, 2, 4)), List((0, 1, 3), (3, 3, 1)))))
  }
}
