package repro.engine

import repro.SparkSpec
import repro.data.{QuerySpec, Workloads}
import repro.index.BitmapIndex

/** Full-pipeline tests: Spark generation -> ground truth -> prefetched
  * counts / bitmap index -> matcher runs -> guarantee checks, on
  * miniature (sf = 0.02) versions of the paper's workloads.
  */
class EndToEndSpec extends SparkSpec {

  private val sf = 0.02
  private val testEps = 0.45 // miniature populations need a loose tolerance
  private val testDelta = 0.05

  // every query's set-up scans its dataset twice, so each is generated once
  private lazy val datasets = Map(
    "FLIGHTS" -> Workloads.flights(spark, sf),
    "TAXI"    -> Workloads.taxi(spark, sf),
    "POLICE"  -> Workloads.police(spark, sf),
  ).map { case (name, ds) => name -> ds.copy(df = ds.df.cache()) }

  /** Each query's context, prepared at its first use and then reused. */
  private val contexts = scala.collection.mutable.Map.empty[(String, String), Harness.QueryContext]

  private def prepare(q: QuerySpec): Harness.QueryContext = contexts.getOrElseUpdate((q.dataset, q.name), {
    val ctx = Harness.prepare(spark, datasets(q.dataset), q)
    ctx.copy(task = ctx.task.copy(eps = testEps, delta = testDelta))
  })

  test("harness context is internally consistent (FLIGHTS-q1)") {
    val q = Workloads.queries.head
    val ctx = prepare(q)
    assert(ctx.task.vz == 161 && ctx.task.vx == 24 && ctx.task.k == 10)
    assert(math.abs(ctx.task.target.sum - 1.0) < 1e-9)
    // prefetched totals equal the dataset row count
    val total = ctx.reader.read(Array.range(0, ctx.reader.numBlocks)).iterator.flatten.map(_._3.toLong).sum
    assert(total == ctx.ds.rows)
    // truth top-k distances are sorted and within the candidate range
    assert(ctx.truth.topK.length == 10)
    assert(ctx.truth.topK.forall(z => z >= 0 && z < 161))
  }

  test("index built from prefetched triples equals index built by Spark") {
    val q = Workloads.queries.head
    val ctx = prepare(q)
    val ds = ctx.ds
    val direct = BitmapIndex.build(ds.df, q.zCol, q.vz, "block", ds.numBlocks)
    for (z <- 0 until q.vz) {
      assert(ctx.index.bitmaps(z) == direct.bitmaps(z), s"bitmap mismatch z=$z")
      assert(ctx.index.tuples(z) == direct.tuples(z), s"tuple count mismatch z=$z")
    }
  }

  test("SparkRoundReader and PrefetchedCounts drive identical matcher runs") {
    val q = Workloads.queries.head
    val ctx = prepare(q)
    val ds = ctx.ds
    val sparkReader = new SparkRoundReader(ds.df, q.zCol, q.xCol, "block", ds.numBlocks)
    val a = Matchers.run(Approach.FastMatch, ctx.task, ctx.reader, ctx.index, 5)
    val b = Matchers.run(Approach.FastMatch, ctx.task, sparkReader, ctx.index, 5)
    assert(a.matching.sameElements(b.matching))
    assert(a.cost.tuplesRead == b.cost.tuplesRead)
    assert(a.cost.blocksRead == b.cost.blocksRead)
    assert(a.simTime == b.simTime)
  }

  test("all nine queries: guarantees hold for every approach") {
    for (q <- Workloads.queries) {
      val ctx = prepare(q)
      for (app <- Approach.all) {
        val res = Matchers.run(app, ctx.task, ctx.reader, ctx.index, 13)
        assert(Metrics.separationHolds(res.matching, ctx.truth, testEps),
          s"${q.dataset}-${q.name} $app separation")
        assert(Metrics.reconstructionHolds(res.matching, res.counts, ctx.truth, testEps),
          s"${q.dataset}-${q.name} $app reconstruction")
      }
    }
  }

  test("benchQuery aggregates runs with zero violations on an easy query") {
    val q = Workloads.queries.head
    val ctx = prepare(q)
    val qb = Harness.benchQuery(ctx, runs = 2)
    assert(qb.scanSimTime == ctx.ds.rows.toDouble) // Scan = pure IO at tTuple = 1
    assert(qb.stats.map(_.approach).toSet ==
      Set("SlowMatch", "ScanMatch", "SyncMatch", "FastMatch"))
    qb.stats.foreach { s =>
      assert(s.guaranteeViolations == 0, s"${s.approach} violated guarantees")
      assert(s.avgSimTime > 0 && s.speedupOverScan > 0)
      assert(s.avgTuplesReadFrac > 0 && s.avgTuplesReadFrac <= 1.0 + 1e-9)
      assert(s.avgDeltaD >= 0.0)
    }
  }

  test("benchQuery rejects fewer than one run") {
    val ctx = prepare(Workloads.queries.head)
    for (runs <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Harness.benchQuery(ctx, runs))
      assert(e.getMessage.contains(s"got $runs"), e.getMessage)
    }
  }

  test("formatRow renders measured and paper numbers") {
    val q = Workloads.queries.head
    val ctx = prepare(q)
    val row = Harness.formatRow(Harness.benchQuery(ctx, runs = 1))
    assert(row.contains("FLIGHTS-q1"))
    assert(row.contains("FastMatch"))
    assert(row.contains("paper"))
    assert(row.contains("21.574")) // FLIGHTS-q1 paper FastMatch speedup
  }

  test("Scan output equals the DuckDB-checked exact top-k") {
    val ctx = prepare(Workloads.queries(6)) // POLICE-q1, small vx
    val res = Matchers.run(Approach.Scan, ctx.task, ctx.reader, ctx.index, 0)
    assert(res.matching.sameElements(ctx.truth.topK))
  }
}
