package repro.engine

import org.apache.spark.sql.SparkSession
import repro.data.{Dataset, QuerySpec, Workloads}
import repro.engine.GroundTruth.Truth
import repro.index.BitmapIndex

/** End-to-end glue: prepare a query's context (ground truth, prefetched
  * block counts, bitmap index) with Spark, then run and score the five
  * approaches. Shared by the Table-4 bench, the integration tests, and
  * the spark-submit jobs.
  */
object Harness {

  final case class QueryContext(
      ds: Dataset,
      q: QuerySpec,
      truth: Truth,
      reader: PrefetchedCounts,
      index: BitmapIndex,
      task: MatchTask,
  )

  def prepare(spark: SparkSession, ds: Dataset, q: QuerySpec,
              eps: Double = Workloads.DefaultEps,
              delta: Double = Workloads.DefaultDelta): QueryContext = {
    val truth = GroundTruth.forQuery(spark, ds, q)
    val reader = PrefetchedCounts.build(ds.df, q.zCol, q.xCol, "block", ds.numBlocks)
    val index = BitmapIndex.fromBlockTriples(reader.allTriples, q.vz, ds.numBlocks)
    val task = MatchTask(q.vz, q.vx, q.k, eps, delta, truth.target)
    QueryContext(ds, q, truth, reader, index, task)
  }

  /** Per-approach aggregate over several runs with random start blocks. */
  final case class ApproachStats(
      approach: String,
      avgSimTime: Double,
      speedupOverScan: Double,
      guaranteeViolations: Int,
      runs: Int,
      avgDeltaD: Double,
      avgTuplesReadFrac: Double,
  )

  final case class QueryBench(
      q: QuerySpec,
      scanSimTime: Double,
      stats: Seq[ApproachStats],
  )

  /** Run every approach `runs` times from pseudo-random start positions
    * (the paper's protocol: random starting point in the shuffled data),
    * and score guarantees / Delta_d against ground truth.
    */
  def benchQuery(ctx: QueryContext, runs: Int, params: CostParams = CostParams(),
                 baseSeed: Long = 7): QueryBench = {
    val b = ctx.reader.numBlocks
    val starts = Array.tabulate(runs)(i => new java.util.Random(baseSeed + i).nextInt(b))

    val scan = Matchers.run(Approach.Scan, ctx.task, ctx.reader, ctx.index, 0, params)
    val scanTime = scan.simTime

    val stats = Approach.all.filterNot(_ == Approach.Scan).map { app =>
      val results = starts.map(s => Matchers.run(app, ctx.task, ctx.reader, ctx.index, s, params))
      val avgTime = results.map(_.simTime).sum / runs
      val violations = results.count { r =>
        !Metrics.separationHolds(r.matching, ctx.truth, ctx.task.eps) ||
        !Metrics.reconstructionHolds(r.matching, r.counts, ctx.truth, ctx.task.eps)
      }
      val avgDeltaD = results.map(r => Metrics.deltaD(r.matching, ctx.truth)).sum / runs
      val avgFrac = results.map(_.cost.tuplesRead.toDouble / ctx.ds.rows).sum / runs
      ApproachStats(app.name, avgTime, scanTime / avgTime, violations, runs, avgDeltaD, avgFrac)
    }
    QueryBench(ctx.q, scanTime, stats)
  }

  /** Render one Table-4-style row block: measured speedups next to the
    * paper's (Table 4 of the paper).
    */
  def formatRow(qb: QueryBench): String = {
    val q = qb.q
    val sb = new StringBuilder
    sb.append(f"${q.dataset}-${q.name}%-12s scanSim=${qb.scanSimTime}%12.0f units  " +
      f"(paper Scan ${q.paperScanSec}%6.3f s)\n")
    qb.stats.foreach { s =>
      val paper = q.paperSpeedups.getOrElse(s.approach, Double.NaN)
      sb.append(f"  ${s.approach}%-10s speedup=${s.speedupOverScan}%8.3fx  (paper ${paper}%8.3fx)  " +
        f"readFrac=${s.avgTuplesReadFrac}%6.3f  deltaD=${s.avgDeltaD}%7.4f  " +
        f"violations=${s.guaranteeViolations}/${s.runs}\n")
    }
    sb.toString
  }
}
