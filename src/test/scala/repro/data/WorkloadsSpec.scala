package repro.data

import repro.SparkSpec
import repro.core.Hist

class WorkloadsSpec extends SparkSpec {

  private val sf = 0.02 // tiny scale for unit tests

  private lazy val flights = Workloads.flights(spark, sf)
  private lazy val taxi = Workloads.taxi(spark, sf)
  private lazy val police = Workloads.police(spark, sf)

  test("flights: schema, cardinalities, row count") {
    assert(flights.df.columns.toSet ==
      Set("id", "origin", "dep_hour", "day_of_week", "dest",
          "dep_delay", "arr_delay", "day_of_month", "block"))
    assert(flights.rows == Workloads.flightsFreq(sf).sum)
    assert(flights.cards("origin") == 161 && flights.cards("dep_hour") == 24)
    assert(flights.df.count() == flights.rows)
  }

  test("flights: frequency strata — hubs frequent, 150..160 rare") {
    val freq = Workloads.flightsFreq(1.0)
    assert(freq.take(15).forall(_ == 120000L))
    assert(freq.slice(150, 161).forall(_ == 500L))
    assert(freq(20) == 8000L)
  }

  test("flights: planted DepHour distances support q1 (frequent top-10)") {
    val d = Workloads.flightsDepHour
    val h0 = d(0)
    val taus = d.map(Hist.l1(_, h0))
    val top10 = taus.zipWithIndex.sortBy(_._1).take(10).map(_._2).toSet
    assert(top10 == (0 until 10).toSet, s"top10 by design = $top10")
    // clear separation between 10th and 11th closest
    val sorted = taus.sorted
    assert(sorted(10) - sorted(9) > Workloads.DefaultEps)
  }

  test("flights: planted DepHour distances support q2 (rare top-10)") {
    val d = Workloads.flightsDepHour
    val h1 = d(150)
    val taus = d.map(Hist.l1(_, h1))
    val top10 = taus.zipWithIndex.sortBy(_._1).take(10).map(_._2).toSet
    assert(top10 == (150 until 160).toSet)
    val sorted = taus.sorted
    assert(sorted(10) - sorted(9) > Workloads.DefaultEps)
  }

  test("flights: planted DayOfWeek supports q3 (explicit target, rare top-5)") {
    val d = Workloads.flightsDayOfWeek
    val t = Hist.normalize(Workloads.FlightsDayOfWeekTarget)
    val taus = d.map(Hist.l1(_, t))
    val top5 = taus.zipWithIndex.sortBy(_._1).take(5).map(_._2).toSet
    assert(top5 == (150 until 155).toSet)
    val sorted = taus.sorted
    assert(sorted(5) - sorted(4) > Workloads.DefaultEps)
  }

  test("flights: planted Dest supports q4 (closest-to-uniform = hub)") {
    val d = Workloads.flightsDest
    val u = Hist.uniform(161)
    val taus = d.map(Hist.l1(_, u))
    assert(taus.zipWithIndex.minBy(_._1)._2 == 0)
    val top10 = taus.zipWithIndex.sortBy(_._1).take(10).map(_._2).toSet
    assert(top10 == (0 until 10).toSet)
  }

  test("taxi: strata — busy frequent and near-uniform, stragglers rare") {
    val freq = Workloads.taxiFreq(1.0)
    assert(freq.take(15).forall(_ == 40000L))
    assert(freq.slice(15, 21).forall(_ == 400L))
    val taus = Workloads.taxiHour.map(Hist.l1(_, Hist.uniform(24)))
    val top10 = taus.zipWithIndex.sortBy(_._1).take(10).map(_._2).toSet
    assert(top10 == (0 until 10).toSet, "top-10 closest to uniform must be the busy cluster")
    // boundary bands (busy-outside and rare stragglers) sit between the
    // top-10 and the far tail
    assert((10 until 21).forall(z => taus(z) > taus.take(10).max))
    assert((10 until 21).forall(z => taus(z) < (21 until 2000).map(taus).min))
  }

  test("taxi: dataset generation at tiny sf") {
    assert(taxi.rows == Workloads.taxiFreq(sf).sum)
    assert(taxi.cards("location") == 2000)
    assert(taxi.df.columns.contains("month_of_year"))
  }

  test("police: road and violation strata") {
    val freq = Workloads.policeFreq(1.0)
    assert(freq.take(15).forall(_ == 30000L))
    assert(freq.min >= 3000L)
    val w = Workloads.policeViolationWeights
    assert(w.take(8).forall(_ == 15.0))
    assert(w.drop(8).forall(x => x >= 1.0 && x <= 1.3))
  }

  test("police: planted contraband supports q1 (top cluster near uniform)") {
    val taus = Workloads.policeContraband.map(Hist.l1(_, Hist.uniform(2)))
    val top10 = taus.zipWithIndex.sortBy(_._1).take(10).map(_._2)
    assert(top10.forall(_ < 15))
    assert(taus.drop(15).min > 0.3)
  }

  test("police: planted gender supports q3 (violation top cluster near uniform)") {
    val taus = Workloads.policeGender.map(Hist.l1(_, Hist.uniform(2)))
    val top5 = taus.zipWithIndex.sortBy(_._1).take(5).map(_._2)
    assert(top5.forall(_ < 8))
    assert(taus.drop(8).min > 0.4)
  }

  test("police: dataset generation at tiny sf") {
    assert(police.rows == Workloads.policeFreq(sf).sum)
    assert(police.cards("violation") == 800)
    assert(police.df.columns.contains("driver_gender"))
  }

  test("realized conditional distributions approximate the design") {
    // check a frequent flights hub at tiny sf: realized dep_hour close to design
    val counts = flights.df
      .filter(flights.df("origin") === 0)
      .groupBy("dep_hour").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    val total = counts.values.sum.toDouble
    val realized = Array.tabulate(24)(h => counts.getOrElse(h, 0L) / total)
    val designed = Workloads.flightsDepHour(0)
    // ~2400 samples at sf=0.02: allow generous sampling slack
    assert(Hist.l1(realized, designed) < 0.15)
  }

  test("every query spec is well-formed and references real columns") {
    Workloads.queries.foreach { q =>
      val ds = q.dataset match {
        case "FLIGHTS" => flights
        case "TAXI"    => taxi
        case "POLICE"  => police
      }
      assert(ds.df.columns.contains(q.zCol), s"${q.dataset}.${q.zCol}")
      assert(ds.df.columns.contains(q.xCol), s"${q.dataset}.${q.xCol}")
      assert(ds.cards(q.zCol) == q.vz)
      assert(ds.cards(q.xCol) == q.vx)
      assert(q.k >= 1 && q.k < q.vz)
      assert(q.paperSpeedups.keySet ==
        Set("SlowMatch", "ScanMatch", "SyncMatch", "FastMatch"))
    }
    assert(Workloads.queries.size == 9)
  }

  test("dataset() dispatch and unknown-name rejection") {
    assert(Workloads.dataset(spark, "TAXI", sf).name == "TAXI")
    intercept[IllegalArgumentException](Workloads.dataset(spark, "NOPE", sf))
  }

  test("QuerySpec rejects bad input where it is built") {
    import TargetSpec._
    def q(zCol: String = "z", xCol: String = "x", vz: Int = 4, vx: Int = 3, k: Int = 2,
          target: TargetSpec = ClosestToUniform) =
      QuerySpec("TOY", "q", zCol, xCol, vz, vx, k, target, 0.0, Map.empty)
    q(); q(target = Explicit(Array(0.2, 0.3, 0.5))); q(target = FromCandidate(3)) // valid
    q(k = 9) // k >= vz is allowed
    intercept[IllegalArgumentException](q(vz = 0))
    intercept[IllegalArgumentException](q(vx = 0))
    intercept[IllegalArgumentException](q(k = 0))
    intercept[IllegalArgumentException](q(xCol = "z"))
    intercept[IllegalArgumentException](q(target = Explicit(Array(0.5, 0.5))))
    intercept[IllegalArgumentException](q(target = FromCandidate(4)))
    intercept[IllegalArgumentException](q(target = FromCandidate(-1)))
  }
}
