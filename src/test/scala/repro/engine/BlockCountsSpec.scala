package repro.engine

import org.apache.spark.sql.AnalysisException
import org.apache.spark.sql.functions.{col, lit, when}
import repro.{Oracle, SparkSpec}
import repro.data.{CondCol, Gen, RangeCol}

class BlockCountsSpec extends SparkSpec {

  private lazy val (df, numBlocks) = {
    val specs = Seq(
      RangeCol("z", Array(500L, 300L, 100L)),
      CondCol("x", "z", Array(
        Array(0.6, 0.3, 0.1), Array(0.2, 0.5, 0.3), Array(0.1, 0.1, 0.8)), 1),
    )
    Gen.withBlocks(Gen.dataset(spark, specs, seed = 21), 900L, tuplesPerBlock = 32, seed = 22)
  }

  private lazy val prefetched = PrefetchedCounts.build(df, "z", "x", "block", numBlocks)
  private lazy val repartitioned = PrefetchedCounts.build(df.repartition(7), "z", "x", "block", numBlocks)
  private lazy val sparkReader = new SparkRoundReader(df, "z", "x", "block", numBlocks)

  /** Calls `f(block, z, x, c)` for every triple `visit` yields. */
  private def visitAll(reader: BlockReader, blocks: Array[Int])(f: (Int, Int, Int, Int) => Unit): Unit =
    reader.visit(blocks, new BlockVisitor {
      private var b = -1
      override def startBlock(block: Int): Unit = b = block
      override def triple(z: Int, x: Int, c: Int): Unit = f(b, z, x, c)
    })

  /** What `visit` yields, in order: each block id, then its triples. */
  private def visitLog(reader: BlockReader, blocks: Array[Int]): Seq[Any] = {
    val log = scala.collection.mutable.ArrayBuffer.empty[Any]
    reader.visit(blocks, new BlockVisitor {
      override def startBlock(b: Int): Unit = log += b
      override def triple(z: Int, x: Int, c: Int): Unit = log += ((z, x, c))
    })
    log.toSeq
  }

  test("prefetched totals equal the full dataset") {
    val total = (0 until numBlocks).map(prefetched.tuplesInBlock).sum
    assert(total == 900L)
  }

  test("prefetched per-block counts match a direct Spark aggregation") {
    val expected = df.groupBy("block", "z", "x").count().collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getLong(3)).toMap
    // the repartitioned frame spreads one (block, z, x) over several partitions
    for ((what, counts) <- Seq("df" -> prefetched, "repartitioned" -> repartitioned)) {
      var seen = 0
      visitAll(counts, Array.range(0, numBlocks)) { (b, z, x, c) =>
        assert(expected((b, z, x)) == c.toLong, s"$what block=$b z=$z x=$x")
        seen += 1
      }
      assert(seen == expected.size, what)
    }
  }

  test("build gives the same CSR whatever the partitioning") {
    assert(df.rdd.getNumPartitions != 7)
    val all = Array.range(0, numBlocks)
    assert(repartitioned.read(all).map(_.toSeq).toSeq == prefetched.read(all).map(_.toSeq).toSeq)
  }

  test("per-block counts match DuckDB's GROUP BY block, z, x") {
    val rows = prefetched.read(Array.range(0, numBlocks)).toSeq.zipWithIndex
      .flatMap { case (ts, b) => ts.map { case (z, x, c) => (b, z, x, c.toLong) } }
    val got = spark.createDataFrame(rows).toDF("b", "z", "x", "c")
    Oracle.assertEquivalent(got,
      "SELECT block AS b, z, x, COUNT(*) AS c FROM t GROUP BY block, z, x",
      "t" -> df.select("block", "z", "x"))
  }

  test("block ids beyond the data read as empty blocks") {
    val wide = PrefetchedCounts.build(df, "z", "x", "block", numBlocks + 5)
    assert(wide.numBlocks == numBlocks + 5)
    assert(wide.read(Array.range(numBlocks, numBlocks + 5)).forall(_.isEmpty))
    assert((numBlocks until numBlocks + 5).forall(wide.tuplesInBlock(_) == 0L))
    val all = Array.range(0, numBlocks)
    assert(wide.read(all).map(_.toSeq).toSeq == prefetched.read(all).map(_.toSeq).toSeq)
  }

  test("build rejects bad input where it enters") {
    val tooFew = intercept[IllegalArgumentException](PrefetchedCounts.build(df, "z", "x", "block", numBlocks - 1))
    assert(tooFew.getMessage.contains(s"block id ${numBlocks - 1} out of range [0, ${numBlocks - 1})"))
    val negZ = df.withColumn("z", when(col("block") === 3, lit(-2)).otherwise(col("z")))
    val neg = intercept[IllegalArgumentException](PrefetchedCounts.build(negZ, "z", "x", "block", numBlocks))
    assert(neg.getMessage.contains("negative z -2 in block 3"))
    val nullZ = df.withColumn("z", when(col("block") === 3, lit(null)).otherwise(col("z")))
    val nul = intercept[RuntimeException](PrefetchedCounts.build(nullZ, "z", "x", "block", numBlocks))
    assert(nul.getMessage.contains("[NOT_NULL_ASSERT_VIOLATION] NULL value appeared in non-nullable field"), nul.getMessage)
    // a Long column is not narrowed: it fails at analysis, naming the column
    val longZ = df.withColumn("z", col("z").cast("long"))
    val asLong = intercept[AnalysisException](PrefetchedCounts.build(longZ, "z", "x", "block", numBlocks))
    assert(asLong.getMessage.contains("Cannot up cast z from \"BIGINT\" to \"INT\""), asLong.getMessage)
  }

  test("SparkRoundReader and PrefetchedCounts agree on arbitrary batches") {
    val batches = Seq(
      Array(0, 1, 2),
      Array(numBlocks - 1),
      Array(5, 3, 17 % numBlocks),
      Array.range(0, numBlocks),
    )
    for (batch <- batches) {
      val a = prefetched.read(batch).map(_.sortBy(t => (t._1, t._2)).toSeq)
      val b = sparkReader.read(batch).map(_.sortBy(t => (t._1, t._2)).toSeq)
      assert(a.toSeq == b.toSeq, s"batch ${batch.mkString(",")}")
    }
  }

  test("read preserves requested block order") {
    val batch = Array(7 % numBlocks, 2, 11 % numBlocks)
    val res = prefetched.read(batch)
    assert(res.length == batch.length)
    // order check: counts per slot must equal per-block counts
    batch.zip(res).foreach { case (b, triples) =>
      assert(triples.map(_._3.toLong).sum == prefetched.tuplesInBlock(b))
    }
  }

  test("empty batch yields empty result") {
    assert(prefetched.read(Array.empty).isEmpty)
    assert(sparkReader.read(Array.empty).isEmpty)
  }

  test("allTriples visits every CSR entry with its owning block") {
    val fromIter = prefetched.allTriples.toSeq.groupBy(_._1)
      .view.mapValues(_.size).toMap
    for (b <- 0 until numBlocks) {
      var cnt = 0
      visitAll(prefetched, Array(b))((_, _, _, _) => cnt += 1)
      assert(fromIter.getOrElse(b, 0) == cnt, s"block $b")
    }
  }

  test("reading all blocks reconstructs exact histograms") {
    val counts = Array.fill(3)(new Array[Long](3))
    visitAll(prefetched, Array.range(0, numBlocks))((_, z, x, c) => counts(z)(x) += c)
    val expected = GroundTruth.histograms(df, "z", "x", 3, 3)
    for (z <- 0 until 3)
      assert(counts(z).sameElements(expected(z)), s"z=$z")
  }

  test("visit yields the same blocks and triples, in the same order, as read") {
    val batches = Seq(Array(0, 1, 2), Array(9 % numBlocks, 2, 9 % numBlocks, 0), Array.range(0, numBlocks).reverse)
    for (batch <- batches) {
      val fromRead = batch.toSeq.zip(prefetched.read(batch)).flatMap { case (b, ts) => b +: ts.toSeq }
      assert(visitLog(prefetched, batch) == fromRead, s"batch ${batch.mkString(",")}")
      // the default visit, through read
      val readOnly = new BlockReader {
        override def numBlocks: Int = prefetched.numBlocks
        override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] = prefetched.read(blocks)
      }
      assert(visitLog(readOnly, batch) == fromRead, s"default visit, batch ${batch.mkString(",")}")
    }
  }

  test("allTriples lists the CSR entries block by block, as read does") {
    val fromRead = prefetched.read(Array.range(0, numBlocks)).zipWithIndex
      .flatMap { case (ts, b) => ts.map { case (z, x, _) => (b, z, x) } }.toSeq
    assert(prefetched.allTriples.toSeq == fromRead)
  }

  test("fromTriples counts rows into CSR, sorted by (z, x) within a block") {
    val M = Int.MaxValue
    val pc = PrefetchedCounts.fromTriples(3,
      Array(2, 0, 2, 0, 0, 2, 0),
      Array(M, 8, 5, 6, 6, M, 6),
      Array(M, 1, 0, 2, 1, M, 2))
    assert(pc.read(Array(0, 1, 2)).map(_.toSeq).toSeq ==
      Seq(Seq((6, 1, 1), (6, 2, 2), (8, 1, 1)), Seq(), Seq((5, 0, 1), (M, M, 2))))
    assert(PrefetchedCounts.fromTriples(2, Array.empty, Array.empty, Array.empty).read(Array(0, 1)).forall(_.isEmpty))
  }

  test("fromTriples rejects bad rows, naming the value") {
    def reject(blocks: Array[Int], zs: Array[Int], xs: Array[Int], msg: String): Unit = {
      val e = intercept[IllegalArgumentException](PrefetchedCounts.fromTriples(2, blocks, zs, xs))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    reject(Array(0), Array(0, 1), Array(0), "triple arrays differ in length")
    reject(Array(0, 2), Array(0, 0), Array(0, 0), "block id 2 out of range [0, 2)")
    reject(Array(-1), Array(0), Array(0), "block id -1 out of range [0, 2)")
    reject(Array(1), Array(-3), Array(0), "negative z -3 in block 1")
    reject(Array(1), Array(0), Array(-4), "negative x -4 in block 1")
  }
}
