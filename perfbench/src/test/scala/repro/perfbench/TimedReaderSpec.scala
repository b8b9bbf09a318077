package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.engine._
import repro.index.BitmapIndex

class TimedReaderSpec extends AnyFunSuite {

  /** Blocks of (z, x, count) triples held in memory. */
  private final class ArrayReader(blocks: Array[Array[(Int, Int, Int)]]) extends BlockReader {
    override def numBlocks: Int = blocks.length
    override def read(bs: Array[Int]): Array[Array[(Int, Int, Int)]] = bs.map(blocks(_))
  }

  private val vz = 30
  private val vx = 4
  private val store: Array[Array[(Int, Int, Int)]] = {
    val rnd = new java.util.Random(5)
    Array.fill(400) {
      val counts = scala.collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
      (0 until 64).foreach { _ =>
        // candidate z skews toward group z % vx; rarer candidates appear in fewer blocks
        val z = math.min(vz - 1, (math.abs(rnd.nextGaussian()) * 8).toInt)
        val x = if (rnd.nextDouble() < 0.6) z % vx else rnd.nextInt(vx)
        counts((z, x)) += 1
      }
      counts.toArray.map { case ((z, x), c) => (z, x, c) }.sortBy(t => (t._1, t._2))
    }
  }
  private val index = BitmapIndex.fromBlockTriples(
    store.indices.iterator.flatMap(b => store(b).iterator.map(t => (b, t._1, t._2))), vz, store.length)
  private val task = MatchTask(vz, vx, k = 3, eps = 0.15, delta = 0.01, target = Array(0.7, 0.1, 0.1, 0.1))

  test("the timing decorator leaves every approach's RunResult unchanged") {
    for (app <- Approach.all; start <- Seq(0, 123, 399)) {
      val plain = Matchers.run(app, task, new ArrayReader(store), index, start)
      val timedReader = new TimedReader(new ArrayReader(store), new Tracer(enabled = true))
      val timed = Matchers.run(app, task, timedReader, index, start)
      assert(Bench.resultDiff(timed, plain).isEmpty, s"$app from $start")
      assert(timedReader.callNs.nonEmpty && timedReader.callNs.forall(_ >= 0))
    }
  }

  test("every read becomes a span under the enclosing one, which it inherits the query from") {
    val tracer = new Tracer(enabled = true)
    val reader = new TimedReader(new ArrayReader(store), tracer)
    tracer.span("matchers.run", "Q", 9)(Matchers.run(Approach.FastMatch, task, reader, index, 9))
    val (reads, runs) = tracer.spans.partition(_.name == "blockcounts.read")
    assert(runs.map(_.name) == Seq("matchers.run"))
    assert(reads.size == reader.callNs.size)
    assert(reads.forall(s => s.parent == runs.head.id && s.query == "Q" && s.startBlock == 9))
    assert(reads.forall(s => s.startNs >= runs.head.startNs && s.endNs <= runs.head.endNs))
  }

  test("a disabled tracer records nothing") {
    val tracer = new Tracer(enabled = false)
    assert(tracer.span("x")(41 + 1) == 42)
    assert(tracer.spans.isEmpty)
  }
}
