package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Hist
import repro.data.{TargetSpec, Workloads}
import repro.engine.GroundTruth

/** spark-submit entrypoint reproducing Table 3 (query summaries), with
  * targets resolved against the generated data.
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar [sf]
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.2)
    val spark = SparkSession.builder().appName("repro-table3")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val datasets = Workloads.queries.map(_.dataset).distinct
        .map(n => n -> Workloads.dataset(spark, n, sf)).toMap
      datasets.values.foreach(_.df.cache().count())
      println(f"${"Query"}%-12s ${"Z(|V_Z|)"}%-18s ${"X(|V_X|)"}%-20s k   target")
      Workloads.queries.foreach { q =>
        val truth = GroundTruth.forQuery(spark, datasets(q.dataset), q)
        val desc = q.target match {
          case TargetSpec.FromCandidate(z) => s"candidate $z's histogram"
          case TargetSpec.Explicit(v)      => v.map(x => f"$x%.3f").mkString("[", ", ", "]")
          case TargetSpec.ClosestToUniform =>
            val d = GroundTruth.distances(truth.hists, Hist.uniform(q.vx))
            s"closest to uniform = candidate ${d.indices.minBy(d)}"
        }
        println(f"${q.dataset + "-" + q.name}%-12s ${q.zCol + s"(${q.vz})"}%-18s " +
          f"${q.xCol + s"(${q.vx})"}%-20s ${q.k}%-3d $desc")
      }
    } finally spark.stop()
  }
}
