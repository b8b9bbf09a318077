package repro.index

import java.util.BitSet
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{CondCol, Gen, RangeCol}
import repro.engine.PrefetchedCounts

class BitmapIndexSpec extends SparkSpec {

  private lazy val (df, numBlocks) = {
    val specs = Seq(
      RangeCol("z", Array(400L, 200L, 50L, 10L)),
      CondCol("x", "z", Array.fill(4)(Array(0.5, 0.5)), 1),
    )
    Gen.withBlocks(Gen.dataset(spark, specs, seed = 17), 660L, tuplesPerBlock = 16, seed = 18)
  }

  private lazy val index = BitmapIndex.build(df, "z", 4, "block", numBlocks)

  test("bitmap bit is set iff the block contains the candidate") {
    val present = df.select("z", "block").collect()
      .map(r => (r.getInt(0), r.getInt(1))).toSet
    for (z <- 0 until 4; b <- 0 until numBlocks) {
      assert(index.contains(z, b) == present((z, b)),
        s"mismatch at z=$z b=$b")
    }
  }

  test("blockCount equals the number of distinct blocks per candidate") {
    val expected = df.groupBy("z").agg(countDistinct("block").as("c")).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    for (z <- 0 until 4) assert(index.blockCount(z) == expected(z).toInt)
  }

  test("a rare candidate appears in few blocks, a frequent one in many") {
    assert(index.blockCount(0) > index.blockCount(3))
    assert(index.blockCount(3) <= 10)
  }

  test("candidate with no tuples has an empty bitmap") {
    // vz=5 while data has only 0..3
    val idx5 = BitmapIndex.build(df, "z", 5, "block", numBlocks)
    assert(idx5.blockCount(4) == 0)
    assert((0 until numBlocks).forall(b => !idx5.contains(4, b)))
  }

  test("fromBlockTriples agrees with the Spark-built index") {
    val triples = df.select("block", "z").collect()
      .map(r => (r.getInt(0), r.getInt(1), 1)).iterator
    val idx2 = BitmapIndex.fromBlockTriples(BitmapIndex.Entries(triples), 4, numBlocks)
    for (z <- 0 until 4) {
      assert(idx2.bitmaps(z) == index.bitmaps(z), s"bitmap mismatch for z=$z")
      assert(idx2.tuples(z) == index.tuples(z), s"tuple count mismatch for z=$z")
    }
  }

  test("N_z from build and from allTriples equals DuckDB's COUNT(*) GROUP BY z, whatever the partitioning") {
    // vz = 5: candidate 4 has no tuples, and the LEFT JOIN gives it a count of 0
    val vz = 5
    val cands = spark.range(vz).select(col("id").cast("int").as("z"))
    val sql = "SELECT c.z AS z, COUNT(t.z) AS n FROM c LEFT JOIN t ON c.z = t.z GROUP BY c.z"
    for ((what, frame) <- Seq("df" -> df, "repartitioned" -> df.repartition(7))) {
      val built = BitmapIndex.build(frame, "z", vz, "block", numBlocks)
      val counts = PrefetchedCounts.build(frame, "z", "x", "block", numBlocks)
      val fromTriples = BitmapIndex.fromBlockTriples(counts.allTriples, vz, numBlocks)
      for (idx <- Seq(built, fromTriples)) {
        val got = spark.createDataFrame((0 until vz).map(z => (z, idx.tuples(z)))).toDF("z", "n")
        Oracle.assertEquivalent(got, sql, "c" -> cands, "t" -> frame.select("z"))
      }
      assert(built.tuples(4) == 0 && fromTriples.tuples(4) == 0, what)
    }
  }

  test("the constructor rejects tuple counts that do not fit the bitmaps") {
    val bits = Array.fill(3)(new BitSet(10))
    bits(0).set(1); bits(0).set(4); bits(1).set(9)
    def reject(tuples: Array[Long], msg: String): Unit = {
      val e = intercept[IllegalArgumentException](new BitmapIndex(bits, tuples, 10))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    new BitmapIndex(bits, Array(2L, 7L, 0L), 10) // valid
    reject(Array(2L, 7L), "2 tuple counts for 3 candidates")
    reject(Array(2L, 7L, 0L, 0L), "4 tuple counts for 3 candidates")
    reject(Array(2L, 7L, -1L), "candidate 2: negative tuple count -1")
    reject(Array(1L, 7L, 0L), "candidate 0: 1 tuples in 2 blocks")
    reject(Array(2L, 7L, 3L), "candidate 2: 3 tuples but no block")
  }

  test("fromBlockTriples rejects an entry with no tuples") {
    for (c <- Seq(0, -2)) {
      val e = intercept[IllegalArgumentException](
        BitmapIndex.fromBlockTriples(BitmapIndex.Entries(Iterator((3, 0, 2), (5, 1, c))), 2, 10))
      assert(e.getMessage.contains(s"block 5: count $c for candidate 1"), e.getMessage)
    }
  }

  test("fromBlockTriples over plain triples reads only block and z, and holds no N_z") {
    val idx = BitmapIndex.fromBlockTriples(Iterator((3, 0, 0), (5, 1, -7), (5, 1, 2), (9, 1, 1)), 3, 10)
    assert(!idx.hasTuples)
    assert(idx.bitmaps.map(_.toString).toSeq == Seq("{3}", "{5, 9}", "{}"))
    assert(idx.blockCount(1) == 2)
    val e = intercept[IllegalStateException](idx.tuples(0))
    assert(e.getMessage.contains("no N_z"), e.getMessage)
  }

  test("build rejects out-of-range candidate values") {
    intercept[Exception] {
      BitmapIndex.build(df, "z", 2, "block", numBlocks) // vz too small
    }
  }

  /** `idx` and an index built from `BitSet`s agree in every observable. */
  private def assertAgreesWithBitSets(idx: BitmapIndex, bitsets: Array[BitSet], what: String): Unit = {
    // an index without N_z is compared with one holding a tuple per block
    val tuples = Array.tabulate(bitsets.length)(z => if (idx.hasTuples) idx.tuples(z) else bitsets(z).cardinality.toLong)
    val ref = new BitmapIndex(bitsets, tuples, idx.numBlocks)
    assert(idx.nCandidates == bitsets.length, what)
    for (z <- bitsets.indices) {
      assert(idx.blockCount(z) == bitsets(z).cardinality, s"$what: blockCount($z)")
      assert(idx.blockCount(z) == ref.blockCount(z), s"$what: blockCount($z) vs BitSet index")
      assert(idx.bitmaps(z) == bitsets(z), s"$what: bitmaps($z)")
      assert(ref.bitmaps(z) == bitsets(z), s"$what: BitSet index bitmaps($z)")
      for (b <- 0 until idx.numBlocks)
        assert(idx.contains(z, b) == bitsets(z).get(b) && ref.contains(z, b) == bitsets(z).get(b),
          s"$what: contains($z, $b)")
    }
  }

  test("Spark-built and fromBlockTriples-built indexes agree with a BitSet-built one") {
    assert(numBlocks % 64 != 0)
    val rows = df.select("block", "z").collect().map(r => (r.getInt(0), r.getInt(1)))
    // vz = 5: candidate 4 has no tuples
    val bitsets = Array.fill(5)(new BitSet(numBlocks))
    rows.foreach { case (b, z) => bitsets(z).set(b) }
    assertAgreesWithBitSets(BitmapIndex.build(df, "z", 5, "block", numBlocks), bitsets, "build")
    assertAgreesWithBitSets(
      BitmapIndex.fromBlockTriples(rows.iterator.map { case (b, z) => (b, z, 1) }, 5, numBlocks),
      bitsets, "fromBlockTriples")
    assertAgreesWithBitSets(
      BitmapIndex.fromBlockTriples(BitmapIndex.Entries(rows.iterator.map { case (b, z) => (b, z, 1) }), 5, numBlocks),
      bitsets, "fromBlockTriples over entries")
  }

  test("fromBlockTriples agrees with BitSets across word boundaries") {
    val rng = new java.util.Random(5)
    for (nb <- Seq(1, 63, 64, 65, 130, 200)) {
      val bitsets = Array.fill(4)(new BitSet(nb))
      val triples = for (z <- 0 until 3; b <- 0 until nb if rng.nextDouble() < 0.3) yield {
        bitsets(z).set(b); (b, z, 1)
      }
      bitsets(1).set(nb - 1) // the last block, in the last (partial) word
      val idx = BitmapIndex.fromBlockTriples((triples :+ ((nb - 1, 1, 1))).iterator, 4, nb)
      assertAgreesWithBitSets(idx, bitsets, s"numBlocks=$nb")
      assert(idx.blockCount(3) == 0)
    }
  }

  test("bitmaps returns copies; the index cannot be changed through them") {
    val before = index.blockCount(0)
    index.bitmaps(0).clear()
    assert(index.blockCount(0) == before && index.bitmaps(0).cardinality == before)
  }

  test("a block id at or beyond numBlocks is rejected") {
    val bits = new BitSet(10); bits.set(10)
    intercept[IllegalArgumentException](new BitmapIndex(Array(bits), Array(1L), 10))
    intercept[IllegalArgumentException](BitmapIndex.fromBlockTriples(Iterator((10, 0, 1)), 1, 10))
    intercept[IllegalArgumentException](BitmapIndex.fromBlockTriples(Iterator((-1, 0, 1)), 1, 10))
    intercept[IllegalArgumentException](BitmapIndex.fromBlockTriples(Iterator((0, 1, 1)), 1, 10))
    intercept[IllegalArgumentException](BitmapIndex.build(df, "z", 4, "block", numBlocks - 1))
  }
}
