package repro.engine

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Deviations, Hist, HistSimState}
import repro.index.BitmapIndex

/** Exhaustion after each visit ([[Matchers.Sink.markExhausted]]), from
  * tuple counts and from bitmaps alone, and the refresh rule of
  * `Deviations.iterate` (refresh iff `n` moved) against
  * [[BlockCountingSink]], visit by visit, over random block stores.
  */
class ExhaustionSpec extends AnyFunSuite {

  /** A store: `blocks(b)` holds b's (z, x, count) entries, count >= 1; a
    * run visits `visits` in order, each a batch of distinct unread blocks.
    */
  private final case class Store(vz: Int, vx: Int, blocks: Array[Array[(Int, Int, Int)]], visits: List[Array[Int]]) {
    override def toString: String =
      s"Store(vz=$vz, vx=$vx, blocks ${blocks.map(_.mkString("[", " ", "]")).mkString(" ")}, " +
        s"visits ${visits.map(_.mkString(",")).mkString(" | ")})"

    def triples: Iterator[(Int, Int, Int)] =
      blocks.indices.iterator.flatMap(b => blocks(b).iterator.map { case (z, _, c) => (b, z, c) })
  }

  private final class ArrayReader(blocks: Array[Array[(Int, Int, Int)]]) extends BlockReader {
    override def numBlocks: Int = blocks.length
    override def read(bs: Array[Int]): Array[Array[(Int, Int, Int)]] = bs.map(blocks(_))
  }

  /** Runs the store's visits through `Matchers`' sink, once over an index
    * with N_z and once over one without, and through the oracle; after
    * the start and after each visit, compares each run's exact flags and
    * the candidates `Deviations.iterate` refreshes with the oracle's exact
    * and dirty flags. Returns the first mismatch.
    */
  private def mismatch(s: Store): Option[String] = {
    val reader = new ArrayReader(s.blocks)
    val counted = BitmapIndex.fromBlockTriples(BitmapIndex.Entries(s.triples), s.vz, s.blocks.length)
    val bitmapsOnly = BitmapIndex.fromBlockTriples(s.triples, s.vz, s.blocks.length)
    assert(counted.hasTuples && !bitmapsOnly.hasTuples)
    val runs = Seq(counted, bitmapsOnly).map { index =>
      val state = new HistSimState(s.vz, Hist.uniform(s.vx))
      (if (index.hasTuples) "N_z" else "bitmaps", state, new Matchers.Sink(state, new Cost, index))
    }
    val oracle = new BlockCountingSink(counted)
    (Array.empty[Int] :: s.visits).iterator.zipWithIndex.map { case (visit, v) =>
      if (visit.nonEmpty) reader.visit(visit, oracle)
      val dirty = oracle.dirty.indices.filter(oracle.dirty)
      java.util.Arrays.fill(oracle.dirty, false)
      runs.iterator.map { case (rule, state, sink) =>
        if (visit.nonEmpty) reader.visit(visit, sink)
        sink.markExhausted(Approach.FastMatch, 0)
        // poison tau: the candidates iterate refreshes are those it changes
        val saved = state.tau.clone()
        java.util.Arrays.fill(state.tau, -1.0)
        Deviations.iterate(state, 1, 0.1, 0.05)
        val refreshed = state.tau.indices.filter(state.tau(_) != -1.0)
        state.tau.indices.foreach(z => if (state.tau(z) == -1.0) state.tau(z) = saved(z))
        if (!state.exact.sameElements(oracle.exact))
          Some(s"$rule, visit $v: exact ${state.exact.mkString(",")}, oracle ${oracle.exact.mkString(",")}")
        else if (refreshed != dirty)
          Some(s"$rule, visit $v: refreshed ${refreshed.mkString(",")}, oracle dirty ${dirty.mkString(",")}")
        else None
      }.collectFirst { case Some(d) => d }
    }.collectFirst { case Some(d) => d }
  }

  /** Candidate 0 has no tuples and candidate 1 lies in one block; counts
    * are often above 1, a block may list one (z, x) twice, and the run
    * visits a prefix of a random block order in batches of 1 to 4. A
    * store has 1 to 12 blocks, or 60 to 140, so that bitmaps span several
    * words.
    */
  private val storeGen: Gen[Store] = for {
    numBlocks <- Gen.frequency(3 -> Gen.choose(1, 12), 1 -> Gen.choose(60, 140))
    vz <- Gen.choose(2, 8)
    vx <- Gen.choose(1, 4)
    confined <- Gen.choose(0, numBlocks - 1)
    entries <- Gen.listOf(for {
      b <- Gen.choose(0, numBlocks - 1); z <- Gen.choose(1, vz - 1); x <- Gen.choose(0, vx - 1)
      c <- Gen.frequency(1 -> Gen.const(1), 1 -> Gen.choose(2, 9))
    } yield (b, z, x, c))
    c1 <- Gen.choose(1, 5)
    order <- Gen.long.map(seed => new scala.util.Random(seed).shuffle((0 until numBlocks).toList))
    read <- Gen.choose(0, numBlocks)
    sizes <- Gen.listOfN(numBlocks, Gen.choose(1, 4))
  } yield {
    val placed = (confined, 1, 0, c1) :: entries.map { case e @ (_, z, x, c) => if (z == 1) (confined, z, x, c) else e }
    val blocks = Array.tabulate(numBlocks)(b => placed.collect { case (`b`, z, x, c) => (z, x, c) }.toArray)
    val visits = List.unfold((order.take(read), sizes)) {
      case (Nil, _)                  => None
      case (rest, n :: more)         => Some((rest.take(n).toArray, (rest.drop(n), more)))
      case (rest, Nil)               => Some((rest.toArray, (Nil, Nil)))
    }
    Store(vz, vx, blocks, visits)
  }

  test("property: exact flags and refreshed candidates equal the block-counting oracle's after every visit, with and without N_z") {
    val params = SCTest.Parameters.default
      .withMinSuccessfulTests(500)
      .withInitialSeed(org.scalacheck.rng.Seed(4242L))
    val res = SCTest.check(params, Prop.forAll(storeGen) { s =>
      val m = mismatch(s)
      Prop(m.isEmpty) :| m.getOrElse("")
    })
    assert(res.passed, s"tuple-count exhaustion differs from the block-counting oracle: ${res.status}")
  }

  test("a candidate in one block is exact after that block, one with no tuples from the start") {
    val blocks = Array(Array((2, 0, 1), (2, 1, 3)), Array((1, 1, 4), (2, 0, 2)), Array((2, 1, 1), (1, 0, 5)))
    for (order <- Seq(List(Array(0), Array(1), Array(2)), List(Array(2, 1), Array(0)), List(Array(1, 0, 2))))
      assert(mismatch(Store(3, 2, blocks, order)).isEmpty, order.map(_.mkString(",")).mkString(" | "))
    val state = new HistSimState(3, Hist.uniform(2))
    val index = BitmapIndex.fromBlockTriples(BitmapIndex.Entries(Iterator((0, 1, 2), (1, 2, 1), (2, 2, 1))), 3, 3)
    val sink = new Matchers.Sink(state, new Cost, index)
    sink.markExhausted(Approach.Scan, 0)
    assert(state.exact.sameElements(Array(true, false, false)))
    new ArrayReader(Array(Array((1, 0, 2)), Array((2, 1, 1)), Array((2, 0, 1)))).visit(Array(0, 1), sink)
    sink.markExhausted(Approach.Scan, 0)
    assert(state.exact.sameElements(Array(true, true, false)))
  }
}
