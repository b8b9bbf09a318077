package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Workloads
import repro.engine.{CostParams, Harness}

/** spark-submit entrypoint reproducing Table 4 (average query speedups
  * and latencies) for one dataset or all.
  *
  * Usage: spark-submit --class repro.jobs.Table4Job repro.jar \
  *          [dataset|ALL] [sf] [runs]
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val which = args.headOption.getOrElse("ALL")
    val sf = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val runs = args.lift(2).map(_.toInt).getOrElse(3)
    val spark = SparkSession.builder().appName("repro-table4")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val queries = Workloads.queries.filter(q => which == "ALL" || q.dataset == which)
      require(queries.nonEmpty, s"unknown dataset $which")
      val datasets = queries.map(_.dataset).distinct
        .map { n =>
          val ds = Workloads.dataset(spark, n, sf)
          ds.df.cache().count()
          n -> ds
        }.toMap
      queries.foreach { q =>
        val ctx = Harness.prepare(spark, datasets(q.dataset), q)
        println(Harness.formatRow(Harness.benchQuery(ctx, runs, CostParams())))
      }
    } finally spark.stop()
  }
}
