package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Hist
import repro.engine.GroundTruth.Truth
import repro.index.BitmapIndex

/** Driver-side matcher tests against an in-memory block store with known
  * ground truth (no Spark needed — the Spark paths are covered by
  * EndToEndSpec).
  */
class MatchersSpec extends AnyFunSuite {

  /** 8 candidates: 0,1 close together (top-2), 2..5 far, 6,7 rare+far. */
  private def standardSetup(seed: Long = 1) = {
    val freq = Array(4000, 4000, 3000, 3000, 3000, 3000, 150, 150)
    val base = Array(0.4, 0.3, 0.2, 0.1)
    def shift(i: Int) = {
      val p = base.clone()
      val j = i % 4; val l = (i + 1) % 4
      p(j) += 0.3 * math.min(1.0, i / 3.0); p(l) -= math.min(p(l) - 0.01, 0.3 * math.min(1.0, i / 3.0))
      Hist.normalize(p)
    }
    val dists = Array(
      base, Hist.normalize(Array(0.41, 0.3, 0.19, 0.1)),
      shift(3), shift(4), shift(5), shift(6), shift(7), shift(8))
    ToyStore(freq, dists, tuplesPerBlock = 32, seed = seed)
  }

  /** 8 candidates whose true top-2 (0, 1, near uniform) are the rarest:
    * 300 tuples each against 3000 for the far rest, so a uniform sample
    * sees the top-k ten times less often than the bulk.
    */
  private def skewedSetup() = {
    val vx = 6
    val dists = Array.tabulate(8) { z =>
      if (z < 2) Hist.normalize(Array.tabulate(vx)(x => 1.0 + (if (x == z) 0.05 else 0.0)))
      else Hist.normalize(Array.tabulate(vx)(x => if (x == z % vx) (0.5 + 0.5 * z) * vx else 1.0))
    }
    ToyStore(Array.tabulate(8)(z => if (z < 2) 300 else 3000), dists, tuplesPerBlock = 32, seed = 5)
  }

  private def task(truth: Truth, eps: Double = 0.25, delta: Double = 0.05) =
    MatchTask(truth.hists.length, truth.target.length, 2, eps, delta, truth.target)

  test("Scan reads everything and returns the exact top-k") {
    val (reader, index, truth, b) = standardSetup()
    val res = Matchers.run(Approach.Scan, task(truth), reader, index, startBlock = 3)
    assert(res.cost.blocksRead == b)
    assert(res.cost.tuplesRead == truth.hists.map(_.sum).sum)
    assert(res.matching.sameElements(truth.topK))
    assert(res.deltaUpper == 0.0)
    // Scan's counts are the exact histograms
    truth.hists.indices.foreach(z => assert(res.counts(z).sameElements(truth.hists(z))))
  }

  test("every approximate approach satisfies both guarantees") {
    for ((store, (reader, index, truth, _)) <- Seq("standard" -> standardSetup(), "skewed" -> skewedSetup())) {
      val t = task(truth)
      for (app <- Approach.all; start <- Seq(0, 17, 101)) {
        val res = Matchers.run(app, t, reader, index, start)
        assert(Metrics.separationHolds(res.matching, truth, t.eps), s"$store $app separation")
        assert(Metrics.reconstructionHolds(res.matching, res.counts, truth, t.eps),
          s"$store $app reconstruction")
      }
    }
  }

  test("sum-criterion approaches terminate with deltaUpper <= delta") {
    for ((store, (reader, index, truth, _)) <- Seq("standard" -> standardSetup(), "skewed" -> skewedSetup())) {
      val t = task(truth)
      for (app <- Seq(Approach.ScanMatch, Approach.SyncMatch, Approach.FastMatch)) {
        val res = Matchers.run(app, t, reader, index, 0)
        assert(res.deltaUpper <= t.delta, s"$store $app deltaUpper=${res.deltaUpper}")
      }
    }
  }

  test("approximate approaches read fewer tuples than Scan on an easy query") {
    val (reader, index, truth, _) = standardSetup()
    val total = truth.hists.map(_.sum).sum
    val t = task(truth, eps = 0.4, delta = 0.05)
    for (app <- Seq(Approach.ScanMatch, Approach.FastMatch)) {
      val res = Matchers.run(app, t, reader, index, 0)
      assert(res.cost.tuplesRead < total, s"$app read everything")
    }
  }

  test("SlowMatch never reads fewer tuples than ScanMatch (same start)") {
    val (reader, index, truth, _) = standardSetup()
    val t = task(truth)
    for (start <- Seq(0, 50, 200)) {
      val slow = Matchers.run(Approach.SlowMatch, t, reader, index, start)
      val scan = Matchers.run(Approach.ScanMatch, t, reader, index, start)
      assert(slow.cost.tuplesRead >= scan.cost.tuplesRead, s"start=$start")
    }
  }

  test("FastMatch prunes blocks once only rare candidates remain active") {
    val (reader, index, truth, b) = standardSetup()
    // small eps: the rare candidates 6,7 must be resolved by exhaustion,
    // so FastMatch should skip blocks lacking them in the endgame
    val t = task(truth, eps = 0.12, delta = 0.01)
    val fast = Matchers.run(Approach.FastMatch, t, reader, index, 0)
    val scan = Matchers.run(Approach.ScanMatch, t, reader, index, 0)
    assert(fast.cost.blocksRead <= scan.cost.blocksRead)
    assert(fast.cost.blocksConsidered <= 300L * b)
  }

  test("matcher is deterministic given (reader, index, start)") {
    val (reader, index, truth, _) = standardSetup()
    val t = task(truth)
    val a = Matchers.run(Approach.FastMatch, t, reader, index, 42)
    val bRes = Matchers.run(Approach.FastMatch, t, reader, index, 42)
    assert(a.matching.sameElements(bRes.matching))
    assert(a.simTime == bRes.simTime)
    assert(a.cost.tuplesRead == bRes.cost.tuplesRead)
  }

  test("start block is normalized modulo the block count") {
    val (reader, index, truth, b) = standardSetup()
    val t = task(truth)
    val a = Matchers.run(Approach.ScanMatch, t, reader, index, 5)
    val c = Matchers.run(Approach.ScanMatch, t, reader, index, 5 + b)
    assert(a.matching.sameElements(c.matching) && a.cost.tuplesRead == c.cost.tuplesRead)
    val d = Matchers.run(Approach.ScanMatch, t, reader, index, -1) // floorMod
    assert(d.matching.sameElements(truth.topK) || d.matching.length == 2)
  }

  test("unsatisfiably tight eps degrades to a full (exact) pass") {
    val (reader, index, truth, b) = standardSetup()
    val t = task(truth, eps = 1e-6, delta = 1e-9)
    for (app <- Seq(Approach.SlowMatch, Approach.ScanMatch, Approach.FastMatch)) {
      val res = Matchers.run(app, t, reader, index, 7)
      assert(res.cost.blocksRead == b, s"$app must exhaust the store")
      assert(res.matching.sameElements(truth.topK), s"$app must be exact after full pass")
      assert(res.deltaUpper == 0.0)
    }
  }

  test("empirical counts never exceed the true histograms") {
    val (reader, index, truth, _) = standardSetup()
    val res = Matchers.run(Approach.FastMatch, task(truth), reader, index, 3)
    for (z <- truth.hists.indices; x <- truth.hists(z).indices)
      assert(res.counts(z)(x) <= truth.hists(z)(x))
  }

  test("SyncMatch accrues cold probes and stall; FastMatch accrues warm probes") {
    val (reader, index, truth, _) = standardSetup()
    val t = task(truth)
    val p = CostParams()
    val sync = Matchers.run(Approach.SyncMatch, t, reader, index, 0, p)
    val fast = Matchers.run(Approach.FastMatch, t, reader, index, 0, p)
    assert(sync.cost.probesCold > 0 && sync.cost.probesWarm == 0)
    assert(fast.cost.probesCold == 0)
    assert(fast.cost.lineMisses > 0)
    // wall formulas
    assert(sync.simTime >=
      sync.cost.ioUnits(p) + sync.cost.coldProbeUnits(p))
    assert(fast.simTime >= fast.cost.ioUnits(p))
  }

  test("wall formula: Scan simTime equals pure IO units") {
    val (reader, index, truth, _) = standardSetup()
    val p = CostParams()
    val res = Matchers.run(Approach.Scan, task(truth), reader, index, 0, p)
    assert(res.simTime == res.cost.ioUnits(p))
  }

  test("rounds are counted and bounded by considered blocks") {
    val (reader, index, truth, _) = standardSetup()
    val res = Matchers.run(Approach.FastMatch, task(truth), reader, index, 0)
    assert(res.rounds >= 1)
    assert(res.rounds <= res.cost.blocksConsidered + 1)
  }

  test("candidate absent from the data is handled (exact-empty)") {
    // add a 9th candidate with zero tuples by widening vz
    val (reader, index, truth, _) = standardSetup()
    val vz = truth.hists.length + 1
    val index2 = {
      val bitmaps = java.util.Arrays.copyOf(index.bitmaps, vz)
      bitmaps(vz - 1) = new java.util.BitSet(reader.numBlocks)
      new BitmapIndex(bitmaps, reader.numBlocks)
    }
    val t = MatchTask(vz, truth.target.length, 2, 0.25, 0.05, truth.target)
    val res = Matchers.run(Approach.FastMatch, t, reader, index2, 0)
    // the empty candidate has distance 1 from the target and exactness
    assert(!res.matching.contains(vz - 1))
    assert(res.deltaUpper <= 0.05)
  }

  /** The same store as `reader`, packed into CSR: each (z, x, c) is c rows. */
  private def prefetch(reader: BlockReader): PrefetchedCounts = {
    val all = reader.read(Array.range(0, reader.numBlocks))
    val rows = all.indices.flatMap(b => all(b).flatMap { case (z, x, c) => Seq.fill(c)((b, z, x)) })
    PrefetchedCounts.fromTriples(reader.numBlocks, rows.map(_._1).toArray, rows.map(_._2).toArray, rows.map(_._3).toArray)
  }

  /** Runs every approach on `reader` and on `pc` (the same store) from
    * several starts and for two tasks, and asserts field-identical
    * `RunResult`s.
    */
  private def assertSameRuns(reader: BlockReader, pc: PrefetchedCounts, index: BitmapIndex,
                             truth: Truth): Unit = {
    def costs(r: RunResult) = Seq(r.cost.tuplesRead, r.cost.blocksRead, r.cost.blocksConsidered,
      r.cost.probesCold, r.cost.probesWarm, r.cost.lineMisses, r.cost.statsIters)
    def same(x: Double, y: Double) = java.lang.Double.compare(x, y) == 0
    for ((t, i) <- Seq(task(truth), task(truth, eps = 0.12, delta = 0.01)).zipWithIndex;
         app <- Approach.all; start <- Seq(0, 17, 101, pc.numBlocks - 1)) {
      val what = s"task $i $app start=$start"
      val got = Matchers.run(app, t, reader, index, start)
      val want = Matchers.run(app, t, pc, index, start)
      assert(got.approach == want.approach, what)
      assert(got.matching.sameElements(want.matching), what)
      assert(got.counts.indices.forall(z => got.counts(z).sameElements(want.counts(z))), what)
      assert(got.tau.indices.forall(z => same(got.tau(z), want.tau(z))), what)
      assert(same(got.deltaUpper, want.deltaUpper), what)
      assert(got.rounds == want.rounds, what)
      assert(costs(got) == costs(want), what)
      assert(same(got.simTime, want.simTime), what)
    }
  }

  test("a reader with only read (default visit) gives the same RunResult as PrefetchedCounts") {
    val (toy, index, truth, _) = standardSetup()
    val pc = prefetch(toy)
    val readOnly = new BlockReader {
      override def numBlocks: Int = pc.numBlocks
      override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] = pc.read(blocks)
    }
    assertSameRuns(readOnly, pc, index, truth)
  }

  test("a reader whose rows are shuffled and split within a block gives the same RunResult") {
    // rows not sorted by (z, x), and one (z, x) in two rows, as a Spark
    // aggregation may return them
    val (toy, index, truth, _) = standardSetup()
    val pc = prefetch(toy)
    val unordered = new BlockReader {
      override def numBlocks: Int = pc.numBlocks
      override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] =
        pc.read(blocks).zip(blocks).map { case (rows, b) =>
          val split = rows.indexWhere(_._3 >= 2) match {
            case -1 => rows
            case i =>
              val (z, x, c) = rows(i)
              rows.updated(i, (z, x, c / 2)) :+ ((z, x, c - c / 2))
          }
          val rng = new scala.util.Random(b)
          rng.shuffle(split.toSeq).toArray
        }
    }
    val all = unordered.read(Array.range(0, pc.numBlocks))
    assert(all.exists(rows => rows.map(r => (r._1, r._2)).distinct.length < rows.length),
      "no block has a split row")
    assert(all.exists(rows => !rows.map(r => (r._1, r._2)).sameElements(rows.map(r => (r._1, r._2)).sorted)),
      "no block has unsorted rows")
    assertSameRuns(unordered, pc, index, truth)
  }

  test("a reader yielding a negative count fails, naming the count") {
    val (toy, index, truth, _) = standardSetup()
    val bad = new BlockReader {
      override def numBlocks: Int = toy.numBlocks
      override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] =
        toy.read(blocks).map(rows => rows :+ ((0, 0, -3)))
    }
    for (app <- Approach.all) {
      val e = intercept[IllegalArgumentException](Matchers.run(app, task(truth), bad, index, 0))
      assert(e.getMessage.contains("-3"), s"$app: ${e.getMessage}")
    }
  }

  test("MatchTask rejects bad input where it is built") {
    val q = Array(0.25, 0.25, 0.5)
    MatchTask(4, 3, 2, 0.1, 0.05, q) // valid
    MatchTask(1, 3, 5, 0.1, 0.05, Array(0.1, 0.2, 0.7)) // k >= vz is allowed
    intercept[IllegalArgumentException](MatchTask(0, 3, 2, 0.1, 0.05, q))
    intercept[IllegalArgumentException](MatchTask(4, 4, 2, 0.1, 0.05, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 0, 0.1, 0.05, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.0, 0.05, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, Double.NaN, 0.05, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.0, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 1.0, q))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.05, Array(-0.25, 0.75, 0.5)))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.05, Array(Double.NaN, 0.5, 0.5)))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.05, Array(Double.PositiveInfinity, 0.5, 0.5)))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.05, Array(0.25, 0.25, 0.25)))
    intercept[IllegalArgumentException](MatchTask(4, 3, 2, 0.1, 0.05, Array(0.25, 0.25, 0.5 + 1e-8)))
  }
}
