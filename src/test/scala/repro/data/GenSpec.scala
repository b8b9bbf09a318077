package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GenSpec extends SparkSpec {

  private def smallSpecs = Seq(
    RangeCol("z", Array(100L, 50L, 25L)),
    CondCol("x", "z", Array(
      Array(0.7, 0.2, 0.1),
      Array(0.1, 0.8, 0.1),
      Array(0.2, 0.2, 0.6),
    ), 1),
    IidCol("w", Array(1.0, 3.0), 2),
    NumCol("v", 0.0, 10.0, 3),
  )

  test("dataset has the exact row count fixed by the RangeCol") {
    val df = Gen.dataset(spark, smallSpecs, seed = 1)
    assert(df.count() == 175L)
  }

  test("RangeCol pins per-candidate counts exactly") {
    val df = Gen.dataset(spark, smallSpecs, seed = 1)
    val counts = df.groupBy("z").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(counts == Map(0 -> 100L, 1 -> 50L, 2 -> 25L))
  }

  test("RangeCol assigns contiguous id ranges") {
    val df = Gen.dataset(spark, smallSpecs, seed = 1)
    val rows = df.select("id", "z").collect().map(r => (r.getLong(0), r.getInt(1)))
    rows.foreach { case (id, z) =>
      val expected = if (id < 100) 0 else if (id < 150) 1 else 2
      assert(z == expected, s"id=$id")
    }
  }

  test("generation is deterministic in (spec, seed)") {
    val a = Gen.dataset(spark, smallSpecs, seed = 7).orderBy("id").collect()
    val b = Gen.dataset(spark, smallSpecs, seed = 7).orderBy("id").collect()
    assert(a.sameElements(b))
  }

  test("different seeds produce different draws") {
    val a = Gen.dataset(spark, smallSpecs, seed = 7).select("x").collect().map(_.getInt(0)).toSeq
    val b = Gen.dataset(spark, smallSpecs, seed = 8).select("x").collect().map(_.getInt(0)).toSeq
    assert(a != b)
  }

  test("determinism survives repartitioning") {
    val df = Gen.dataset(spark, smallSpecs, seed = 7)
    val a = df.orderBy("id").collect()
    val b = df.repartition(13).orderBy("id").collect()
    assert(a.sameElements(b))
  }

  test("CondCol realizes approximately the planted conditional distribution") {
    val specs = Seq(
      RangeCol("z", Array(20000L, 20000L)),
      CondCol("x", "z", Array(Array(0.8, 0.2), Array(0.25, 0.75)), 1),
    )
    val df = Gen.dataset(spark, specs, seed = 3)
    val counts = df.groupBy("z", "x").count().collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getLong(2)).toMap
    val p0 = counts((0, 0)).toDouble / 20000
    val p1 = counts((1, 1)).toDouble / 20000
    assert(math.abs(p0 - 0.8) < 0.02, s"p0=$p0")
    assert(math.abs(p1 - 0.75) < 0.02, s"p1=$p1")
  }

  test("IidCol realizes approximately the planted marginal") {
    val specs = Seq(RangeCol("z", Array(40000L)), IidCol("w", Array(1.0, 3.0), 2))
    val df = Gen.dataset(spark, specs, seed = 3)
    val frac = df.filter(col("w") === 1).count().toDouble / 40000
    assert(math.abs(frac - 0.75) < 0.02, s"frac=$frac")
  }

  test("NumCol stays within bounds") {
    val df = Gen.dataset(spark, smallSpecs, seed = 2)
    val row = df.agg(min("v"), max("v")).collect()(0)
    assert(row.getDouble(0) >= 0.0 && row.getDouble(1) < 10.0)
  }

  test("withBlocks covers [0, numBlocks) and every tuple gets a block") {
    val df = Gen.dataset(spark, smallSpecs, seed = 2)
    val (withB, nb) = Gen.withBlocks(df, 175L, tuplesPerBlock = 16, seed = 99)
    assert(nb == 11)
    val stats = withB.agg(min("block"), max("block"), count(lit(1))).collect()(0)
    assert(stats.getInt(0) >= 0 && stats.getInt(1) < nb && stats.getLong(2) == 175L)
  }

  test("block sizes are near-uniform at scale") {
    val specs = Seq(RangeCol("z", Array(64000L)))
    val df = Gen.dataset(spark, specs, seed = 5)
    val (withB, nb) = Gen.withBlocks(df, 64000L, tuplesPerBlock = 64, seed = 6)
    val sizes = withB.groupBy("block").count().collect().map(_.getLong(1))
    assert(sizes.length == nb)
    val mean = sizes.sum.toDouble / nb
    assert(math.abs(mean - 64.0) < 1.0)
    // multinomial: essentially no block should be empty or 3x the mean
    assert(sizes.min > 0 && sizes.max < 64 * 3)
  }

  test("block assignment is deterministic") {
    val df = Gen.dataset(spark, smallSpecs, seed = 2)
    val (a, _) = Gen.withBlocks(df, 175L, 16, seed = 99)
    val (b, _) = Gen.withBlocks(df, 175L, 16, seed = 99)
    assert(a.orderBy("id").collect().sameElements(b.orderBy("id").collect()))
  }

  test("rejects specs without a leading RangeCol") {
    intercept[IllegalArgumentException](
      Gen.dataset(spark, Seq(IidCol("w", Array(1.0), 0)), seed = 1))
  }

  test("rejects a second RangeCol") {
    intercept[IllegalArgumentException](
      Gen.dataset(spark, Seq(RangeCol("a", Array(10L)), RangeCol("b", Array(10L))), seed = 1))
  }

  test("oracle: grouped counts match DuckDB over the generated data") {
    val df = Gen.dataset(spark, smallSpecs, seed = 4).select("z", "x", "w")
    val got = df.groupBy("z", "x").agg(count(lit(1)).as("c"))
    Oracle.assertEquivalent(got,
      "SELECT z, x, COUNT(*) AS c FROM t GROUP BY z, x", "t" -> df)
  }

  test("oracle: histogram-generating query (Definition 1) matches DuckDB") {
    val df = Gen.dataset(spark, smallSpecs, seed = 4).select("z", "x")
    val got = df.filter(col("z") === 1).groupBy("x").agg(count(lit(1)).as("c"))
    Oracle.assertEquivalent(got,
      "SELECT x, COUNT(*) AS c FROM t WHERE z = 1 GROUP BY x", "t" -> df)
  }
}
