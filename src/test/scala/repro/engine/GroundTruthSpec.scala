package repro.engine

import org.apache.spark.sql.{AnalysisException, DataFrame}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Hist
import repro.data.{CondCol, Gen, RangeCol, TargetSpec}

class GroundTruthSpec extends SparkSpec {

  private val dists = Array(
    Array(0.7, 0.2, 0.1),
    Array(0.34, 0.33, 0.33),
    Array(0.05, 0.05, 0.9),
    Array(0.3, 0.4, 0.3),
  )

  private lazy val df = Gen.dataset(spark, Seq(
    RangeCol("z", Array(3000L, 2000L, 1000L, 500L)),
    CondCol("x", "z", dists, 1),
  ), seed = 31)

  test("histograms: dense matrix matches DuckDB group counts") {
    // the repartitioned frame makes the driver merge several partitions' counts
    for ((what, frame) <- Seq("df" -> df, "repartitioned" -> df.repartition(7))) {
      val hists = GroundTruth.histograms(frame, "z", "x", 4, 3)
      assert(hists.map(_.sum).sameElements(Array(3000L, 2000L, 1000L, 500L)), what)
      // every non-zero cell, compared with DuckDB's groups: a cell DuckDB lacks must be zero
      val cells = for (z <- 0 until 4; x <- 0 until 3 if hists(z)(x) > 0) yield (z, x, hists(z)(x))
      Oracle.assertEquivalent(spark.createDataFrame(cells).toDF("z", "x", "c"),
        "SELECT z, x, COUNT(*) AS c FROM t GROUP BY z, x", "t" -> df.select("z", "x"))
    }
  }

  test("histograms: missing (z, x) cells are zero") {
    // candidate drawn from a distribution with ~zero mass on a bin
    val df2 = Gen.dataset(spark, Seq(
      RangeCol("z", Array(100L)),
      CondCol("x", "z", Array(Array(1.0, 0.0)), 1),
    ), seed = 5)
    val h = GroundTruth.histograms(df2, "z", "x", 1, 2)
    assert(h(0).sameElements(Array(100L, 0L)))
  }

  test("distancesDF agrees with driver-side distances") {
    val target = Array(0.4, 0.3, 0.3)
    val hists = GroundTruth.histograms(df, "z", "x", 4, 3)
    val expected = GroundTruth.distances(hists, target)
    val got = SparkDistances.distancesDF(spark, df, "z", "x", target).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    for (z <- 0 until 4)
      assert(math.abs(got(z) - expected(z)) < 1e-9, s"z=$z got=${got(z)} want=${expected(z)}")
  }

  test("distancesDF handles unobserved groups via the residual-q term") {
    val df2 = Gen.dataset(spark, Seq(
      RangeCol("z", Array(200L)),
      CondCol("x", "z", Array(Array(1.0, 1e-12)), 1), // group 1 ~never drawn
    ), seed = 6)
    val target = Array(0.5, 0.5)
    val got = SparkDistances.distancesDF(spark, df2, "z", "x", target).collect()
    assert(got.length == 1)
    // |1 - 0.5| + |0 - 0.5| = 1.0
    assert(math.abs(got(0).getDouble(1) - 1.0) < 1e-9)
  }

  test("oracle: the L1-distance SQL agrees between Spark and DuckDB") {
    val target = Array(0.4, 0.3, 0.3)
    val sparkDist = SparkDistances.distancesDF(spark, df, "z", "x", target)
      .select(col("z"), round(col("dist"), 6).as("dist"))
    val targetSql = "SELECT 0 AS x, 0.4 AS q UNION ALL SELECT 1, 0.3 UNION ALL SELECT 2, 0.3"
    Oracle.assertEquivalent(sparkDist,
      s"""
         |WITH counts AS (
         |  SELECT z, x, COUNT(*)::DOUBLE AS c FROM t GROUP BY z, x
         |), totals AS (
         |  SELECT z, SUM(c) AS total FROM counts GROUP BY z
         |), tgt AS ($targetSql)
         |SELECT counts.z AS z,
         |       ROUND(SUM(ABS(counts.c / totals.total - tgt.q)) + (1.0 - SUM(tgt.q)), 6) AS dist
         |FROM counts JOIN totals ON counts.z = totals.z JOIN tgt ON counts.x = tgt.x
         |GROUP BY counts.z
         |""".stripMargin,
      "t" -> df.select("z", "x"))
  }

  test("histograms: one Spark job with one stage, so no shuffle") {
    assert(stagesPerJob(GroundTruth.histograms(df, "z", "x", 4, 3)) == Seq(1))
  }

  test("histograms: rejects bad input on the driver, naming the value or column") {
    def reject(frame: DataFrame, vz: Int, vx: Int, msg: String): Unit = {
      val e = intercept[IllegalArgumentException](GroundTruth.histograms(frame, "z", "x", vz, vx))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    reject(df, 3, 3, "z=3 out of [0,3)")
    reject(df, 4, 2, "x=2 out of [0,2)")
    reject(df.withColumn("z", when(col("id") === 17, lit(-1)).otherwise(col("z"))), 4, 3, "z=-1 out of [0,4)")
    reject(df.withColumn("x", when(col("id") === 17, lit(null)).otherwise(col("x"))), 4, 3, "null in column x")
    reject(df.withColumn("z", col("z").cast("double")), 4, 3, "column z is DOUBLE, not an integral type")
    reject(df.withColumn("x", col("x").cast("string")), 4, 3, "column x is STRING, not an integral type")
    // a Long column is not narrowed: it fails at analysis, naming the column
    val asLong = intercept[AnalysisException](
      GroundTruth.histograms(df.withColumn("z", col("z").cast("long")), "z", "x", 4, 3))
    assert(asLong.getMessage.contains("Cannot up cast z from \"BIGINT\" to \"INT\""), asLong.getMessage)
  }

  test("resolveTarget: Explicit normalizes and validates length") {
    val hists = GroundTruth.histograms(df, "z", "x", 4, 3)
    val t = GroundTruth.resolveTarget(TargetSpec.Explicit(Array(2.0, 1.0, 1.0)), hists, 3)
    assert(t.sameElements(Array(0.5, 0.25, 0.25)))
    intercept[IllegalArgumentException](
      GroundTruth.resolveTarget(TargetSpec.Explicit(Array(1.0)), hists, 3))
  }

  test("resolveTarget: FromCandidate returns that candidate's distribution") {
    val hists = GroundTruth.histograms(df, "z", "x", 4, 3)
    val t = GroundTruth.resolveTarget(TargetSpec.FromCandidate(2), hists, 3)
    assert(t.sameElements(Hist.normalize(hists(2))))
  }

  test("resolveTarget: ClosestToUniform picks the near-uniform candidate") {
    val hists = GroundTruth.histograms(df, "z", "x", 4, 3)
    val t = GroundTruth.resolveTarget(TargetSpec.ClosestToUniform, hists, 3)
    // candidate 1 was planted at (0.34, 0.33, 0.33)
    assert(t.sameElements(Hist.normalize(hists(1))))
  }

  test("forQuery assembles target, taus and true top-k consistently") {
    import repro.data.{Dataset, QuerySpec}
    val ds = {
      val (withB, nb) = Gen.withBlocks(df, 6500L, 32, seed = 7)
      Dataset("TOY", withB, 6500L, nb, Map("z" -> 4, "x" -> 3))
    }
    val q = QuerySpec("TOY", "q", "z", "x", 4, 3, 2, TargetSpec.ClosestToUniform, 0.0, Map.empty)
    val truth = GroundTruth.forQuery(spark, ds, q)
    assert(truth.topK.length == 2)
    assert(truth.topK(0) == 1) // target is candidate 1's own distribution
    assert(truth.tau(truth.topK(0)) <= truth.tau(truth.topK(1)))
    val others = (0 until 4).filterNot(truth.topK.contains)
    assert(others.forall(j => truth.tau(j) >= truth.tau(truth.topK(1))))
  }
}
