package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Hist
import repro.data.{Dataset, QuerySpec, TargetSpec}

/** Exact full-data answers, from one Spark scan per query. These serve
  * three roles: (1) the Scan baseline's output, (2) the reference for
  * guarantee checking and the Delta_d error metric, (3) resolution of
  * "closest candidate to uniform" targets (Table 3).
  */
object GroundTruth {

  /** True histogram counts for every candidate, as a dense vz x vx matrix
    * (Definition 1's query, for all z at once). One Spark job with no
    * shuffle: each partition counts its (z, x) rows into a dense array and
    * the driver adds up the partial arrays. A null, a non-integral column
    * or a z or x out of range fails here, naming the column or value.
    */
  def histograms(df: DataFrame, zCol: String, xCol: String, vz: Int, vx: Int): Array[Array[Long]] = {
    require(vz >= 1 && vx >= 1, s"histograms need vz >= 1 and vx >= 1, got $vz x $vx")
    val cells = Math.multiplyExact(vz, vx)
    val parts = IntColumns.scan(df, Seq(zCol, xCol)) { rows =>
      val counts = new Array[Long](cells)
      while (rows.next()) {
        val z = rows(0); val x = rows(1)
        if (z < 0 || z >= vz) rows.fail(s"z=$z out of [0,$vz)")
        else if (x < 0 || x >= vx) rows.fail(s"x=$x out of [0,$vx)")
        else counts(z * vx + x) += 1
      }
      counts
    }
    val total = new Array[Long](cells)
    for (p <- parts) {
      var i = 0
      while (i < cells) { total(i) += p(i); i += 1 }
    }
    Array.tabulate(vz)(z => java.util.Arrays.copyOfRange(total, z * vx, (z + 1) * vx))
  }

  /** l1 distances of every candidate's normalized histogram from a
    * target distribution.
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
