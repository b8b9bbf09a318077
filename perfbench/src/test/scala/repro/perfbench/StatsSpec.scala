package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail is the (n - 10)-th smallest sample, at percentile 100 * (n - 10) / n") {
    val xs = (1 to 200).map(_.toDouble).reverse
    val t = Stats.tail(xs).get
    assert(t.value == 190.0)
    assert(t.percentile == 95.0)
    assert(t.samples == 200)
    assert(xs.count(_ > t.value) == 10)
  }

  test("tail needs more than 10 samples") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    val t = Stats.tail((1 to 11).map(_.toDouble)).get
    assert(t.value == 1.0)
    assert(math.abs(t.percentile - 100.0 / 11) < 1e-12)
  }

  test("tail counts positions, so ties above it still number 10") {
    val xs = Seq.fill(15)(5.0) ++ Seq.fill(10)(7.0)
    assert(Stats.tail(xs).get.value == 5.0)
  }

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("medianPerGroup averages each group's median") {
    val xs = Seq("a" -> 1.0, "a" -> 2.0, "a" -> 30.0, "b" -> 10.0, "b" -> 12.0)
    assert(Stats.medianPerGroup(xs) == (2.0 + 11.0) / 2)
  }

  test("matchP50 takes each start's best time, the median over starts, the mean over queries") {
    def sample(id: String, start: Int, ms: Double) =
      Sample(id, start, cycle = 1, traced = false, ms, new repro.engine.Cost, simTime = 0.0, readCallNs = Nil)
    val xs = Seq(
      sample("a", 1, 5.0), sample("a", 1, 50.0), sample("a", 2, 7.0), sample("a", 3, 9.0), sample("a", 3, 8.0),
      sample("b", 4, 20.0), sample("b", 4, 21.0), sample("b", 5, 30.0),
    )
    assert(Main.matchP50(xs) == (7.0 + 25.0) / 2)
  }
}
