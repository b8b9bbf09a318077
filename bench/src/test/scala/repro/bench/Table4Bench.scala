package repro.bench

import repro.SparkSpec
import repro.data.Workloads
import repro.engine.Harness

/** Reproduces Table 4: "Summary of average query speedups and latencies".
  *
  * For each of the nine queries, runs Scan / SlowMatch / ScanMatch /
  * SyncMatch / FastMatch from `REPRO_BENCH_RUNS` random start positions
  * and reports simulated-time speedups over Scan next to the paper's
  * measured speedups, plus guarantee violations and Delta_d.
  *
  * Scale via REPRO_BENCH_SF (default 1.0 = ~3M tuples per dataset, about
  * 1/200 of the paper's row counts; see DESIGN.md "Scaling eps").
  */
class Table4Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("REPRO_BENCH_SF", "1.0").toDouble
  private val runs = sys.env.getOrElse("REPRO_BENCH_RUNS", "3").toInt

  private lazy val datasets = {
    val names = Workloads.queries.map(_.dataset).distinct
    names.map { n =>
      val ds = Workloads.dataset(spark, n, sf)
      ds.df.cache().count() // materialize once; three queries share it
      n -> ds
    }.toMap
  }

  private lazy val results = Workloads.queries.map { q =>
    val ctx = Harness.prepare(spark, datasets(q.dataset), q)
    val qb = Harness.benchQuery(ctx, runs)
    Console.out.println(Harness.formatRow(qb))
    q -> qb
  }

  private def speedup(dsName: String, qName: String, approach: String): Double = {
    val (_, qb) = results.find { case (q, _) => q.dataset == dsName && q.name == qName }.get
    qb.stats.find(_.approach == approach).get.speedupOverScan
  }

  test("Table 4: all queries run and report") {
    assert(results.size == 9)
    results.foreach { case (q, qb) =>
      assert(qb.scanSimTime > 0, s"${q.dataset}-${q.name}")
      assert(qb.stats.size == 4)
    }
  }

  test("Table 4: guarantees satisfied across all runs for all queries (paper 5.4)") {
    results.foreach { case (q, qb) =>
      qb.stats.foreach { s =>
        assert(s.guaranteeViolations == 0,
          s"${q.dataset}-${q.name} ${s.approach}: ${s.guaranteeViolations}/${s.runs} violations")
      }
    }
  }

  test("Table 4: Delta_d stays small (paper: never more than 6% above optimal)") {
    results.foreach { case (q, qb) =>
      qb.stats.foreach { s =>
        assert(s.avgDeltaD < 0.06,
          s"${q.dataset}-${q.name} ${s.approach}: deltaD=${s.avgDeltaD}")
      }
    }
  }

  test("shape: FastMatch beats Scan on every query") {
    Workloads.queries.foreach { q =>
      assert(speedup(q.dataset, q.name, "FastMatch") > 1.5,
        s"${q.dataset}-${q.name}: FastMatch not faster than Scan")
    }
  }

  test("shape: frequent-top-k queries are fast for every approximate approach") {
    for ((d, n) <- Seq(("FLIGHTS", "q1"), ("POLICE", "q1"), ("POLICE", "q2"));
         app <- Seq("SlowMatch", "ScanMatch", "SyncMatch", "FastMatch")) {
      assert(speedup(d, n, app) > 3.0, s"$d-$n $app")
    }
  }

  test("shape: rare-top-k queries gate ScanMatch/SlowMatch near Scan, FastMatch prunes") {
    for ((d, n) <- Seq(("FLIGHTS", "q2"), ("FLIGHTS", "q3"))) {
      assert(speedup(d, n, "SlowMatch") < 2.0, s"$d-$n SlowMatch")
      assert(speedup(d, n, "ScanMatch") < 2.0, s"$d-$n ScanMatch")
      assert(speedup(d, n, "FastMatch") > 2.0 * speedup(d, n, "ScanMatch"), s"$d-$n FastMatch")
    }
  }

  test("shape: SyncMatch is catastrophically slow on high-|V_Z| TAXI (crossover)") {
    for (n <- Seq("q1", "q2")) {
      assert(speedup("TAXI", n, "SyncMatch") < 1.0, s"TAXI-$n SyncMatch should lose to Scan")
      assert(speedup("TAXI", n, "FastMatch") > 3.0, s"TAXI-$n FastMatch")
    }
  }

  test("shape: SlowMatch never beats ScanMatch (worse termination criterion)") {
    Workloads.queries.foreach { q =>
      val slow = speedup(q.dataset, q.name, "SlowMatch")
      val scan = speedup(q.dataset, q.name, "ScanMatch")
      assert(slow <= scan * 1.05, s"${q.dataset}-${q.name}: slow=$slow scan=$scan")
    }
  }

  test("shape: SyncMatch pays a probe penalty vs ScanMatch on high-|V_Z| POLICE-q3") {
    assert(speedup("POLICE", "q3", "SyncMatch") < speedup("POLICE", "q3", "ScanMatch"))
  }
}
