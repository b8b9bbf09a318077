package repro.engine

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.Checked.asInt
import repro.data.Gen

/** Appendix A.1.1: measure-biased sampling for SUM aggregations.
  *
  * To match histograms generated by `SELECT X, SUM(Y) ... GROUP BY X`,
  * FastMatch uses a preprocessing pass that includes each tuple with
  * probability proportional to its measure value Y. Over such a sample,
  * plain COUNT histograms estimate the SUM distribution, and HistSim
  * proceeds unchanged (including its guarantees, since the biased sample
  * of candidate i is i.i.d. from the normalized SUM distribution).
  *
  * The sample is one extra full Spark pass per measure attribute, as in
  * the paper.
  */
object MeasureBiased {

  /** Poisson measure-biased sample: tuple t is kept with probability
    * min(1, rate * y / avgY), deterministically in (id, seed). `rate`
    * is the expected sampling fraction at the average measure value.
    * Y must be non-negative; zero-measure tuples are never sampled,
    * matching their zero contribution to any SUM.
    */
  def sample(df: DataFrame, yCol: String, avgY: Double, rate: Double, seed: Long): DataFrame = {
    require(rate > 0 && rate <= 1.0, s"rate must be in (0, 1], got $rate")
    require(avgY > 0, s"avgY must be positive, got $avgY")
    val keepProb: Column = least(lit(1.0), lit(rate / avgY) * col(yCol))
    df.filter(Gen.u01(col("id"), seed) < keepProb)
  }

  /** Exact SUM(Y) histograms per candidate — the ground truth the biased
    * COUNT histograms approximate. Computed as a DataFrame aggregation.
    */
  def sumHistograms(df: DataFrame, zCol: String, xCol: String, yCol: String,
                    vz: Int, vx: Int): Array[Array[Double]] = {
    val rows = df.groupBy(col(zCol), col(xCol)).agg(sum(col(yCol)).as("s")).collect()
    val out = Array.fill(vz)(new Array[Double](vx))
    rows.foreach { r =>
      val z = asInt(r.get(0)); val x = asInt(r.get(1))
      out(z)(x) = r.getDouble(2)
    }
    out
  }
}
