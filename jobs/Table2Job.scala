package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Workloads

/** spark-submit entrypoint reproducing Table 2 (dataset descriptions).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro.jar [sf]
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(1.0)
    val spark = SparkSession.builder().appName("repro-table2")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      println(f"${"Dataset"}%-9s ${"#Tuples"}%12s ${"#Attributes"}%12s ${"#Blocks"}%10s")
      for (name <- Seq("FLIGHTS", "TAXI", "POLICE")) {
        val ds = Workloads.dataset(spark, name, sf)
        val attrs = ds.df.columns.count(c => c != "id" && c != "block")
        println(f"$name%-9s ${ds.rows}%12d $attrs%12d ${ds.numBlocks}%10d")
      }
    } finally spark.stop()
  }
}
