package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.Checked.asInt
import repro.core.Hist
import repro.data.{Dataset, QuerySpec, TargetSpec}

/** Exact full-data answers, computed with Spark aggregations. These serve
  * three roles: (1) the Scan baseline's output, (2) the reference for
  * guarantee checking and the Delta_d error metric, (3) resolution of
  * "closest candidate to uniform" targets (Table 3).
  */
object GroundTruth {

  /** True histogram counts for every candidate: dense vz x vx matrix from
    * a single GROUP BY (Definition 1's query, for all z at once).
    */
  def histograms(df: DataFrame, zCol: String, xCol: String, vz: Int, vx: Int): Array[Array[Long]] = {
    val rows = df.groupBy(col(zCol), col(xCol)).count().collect()
    val out = Array.fill(vz)(new Array[Long](vx))
    rows.foreach { r =>
      val z = asInt(r.get(0)); val x = asInt(r.get(1))
      require(z >= 0 && z < vz, s"z=$z out of [0,$vz)")
      require(x >= 0 && x < vx, s"x=$x out of [0,$vx)")
      out(z)(x) = r.getLong(2)
    }
    out
  }

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

  /** Driver-side distances from precomputed histograms (same result as
    * [[distancesDF]]; cross-checked in tests).
    */
  def distances(hists: Array[Array[Long]], target: Array[Double]): Array[Double] =
    hists.map(h => Hist.dist(h, target))

  /** Resolve a query's TargetSpec into a concrete normalized vector using
    * the true histograms.
    */
  def resolveTarget(spec: TargetSpec, hists: Array[Array[Long]], vx: Int): Array[Double] =
    spec match {
      case TargetSpec.Explicit(vec) =>
        require(vec.length == vx, s"explicit target has ${vec.length} bins, expected $vx")
        Hist.normalize(vec)
      case TargetSpec.FromCandidate(z) =>
        Hist.normalize(hists(z))
      case TargetSpec.ClosestToUniform =>
        val u = Hist.uniform(vx)
        val d = distances(hists, u)
        Hist.normalize(hists(d.indices.minBy(d)))
    }

  /** Full exact answer for one query: target vector, per-candidate true
    * distances, and the true top-k (the set M* of Definition 3).
    */
  final case class Truth(
      target: Array[Double],
      hists: Array[Array[Long]],
      tau: Array[Double],
      topK: Array[Int],
  )

  def forQuery(spark: SparkSession, ds: Dataset, q: QuerySpec): Truth = {
    val hists = histograms(ds.df, q.zCol, q.xCol, q.vz, q.vx)
    val target = resolveTarget(q.target, hists, q.vx)
    val tau = distances(hists, target)
    val topK = Array.range(0, q.vz).sortBy(tau).take(q.k)
    Truth(target, hists, tau, topK)
  }
}
