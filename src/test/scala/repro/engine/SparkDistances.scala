package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The l1 distances of [[GroundTruth.distances]] written as one Spark
  * DataFrame query, so that tests can check the driver-side arithmetic
  * against Spark and the same SQL against DuckDB. The system itself
  * computes distances on the driver.
  */
object SparkDistances {

  /** l1 distances of every candidate's normalized histogram from a target
    * distribution, computed as a DataFrame aggregation: per-candidate
    * group proportions via a windowed total, joined with the target,
    * then sum(abs(p - q)) per candidate. Groups with zero count
    * contribute q_x (|0 - q_x|), handled by summing q over *observed*
    * groups and adding (1 - that sum) once per candidate.
    */
  def distancesDF(spark: SparkSession, df: DataFrame, zCol: String, xCol: String,
                  target: Array[Double]): DataFrame = {
    import spark.implicits._
    val targetDf = target.zipWithIndex.map { case (q, x) => (x, q) }.toSeq.toDF("x", "q")
    val counts = df.groupBy(col(zCol).as("z"), col(xCol).as("x")).agg(count(lit(1)).as("c"))
    val totals = counts.groupBy($"z").agg(sum($"c").as("total"))
    counts
      .join(totals, "z")
      .join(targetDf, "x")
      .groupBy($"z")
      .agg(
        (sum(abs($"c" / $"total" - $"q")) + (lit(1.0) - sum($"q"))).as("dist")
      )
  }
}
