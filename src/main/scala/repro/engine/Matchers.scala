package repro.engine

import repro.core.{Deviations, HistSimState, Iteration}
import repro.index.BitmapIndex

/** The five approaches of Section 5.2, FastMatch with features turned
  * off, as configurations of [[Matchers.run]]'s one round body. The loop
  * is single-threaded; `wall` models the real system's (a)synchrony.
  */
sealed abstract class Approach(val name: String) {
  /** Blocks considered per round; each round is one statistics iteration. */
  private[engine] def chunk(p: CostParams, numBlocks: Int): Int = p.lookahead
  /** The blocks of `chunk` to read, in chunk order: all, unless the approach prunes. */
  private[engine] def select(index: BitmapIndex, active: Array[Boolean], chunk: Array[Int], cost: Cost): Array[Int] =
    chunk
  /** The stopping rule: HistSim's sum criterion sum delta_i <= delta. */
  private[engine] def done(it: Iteration, task: MatchTask): Boolean = it.deltaUpper <= task.delta
  /** Modeled wall time in tuple units; statistics run asynchronously: max(io, stats). */
  private[engine] def wall(cost: Cost, p: CostParams, vz: Int): Double =
    math.max(cost.ioUnits(p), cost.statsUnits(p, vz))
}
object Approach {
  /** Exact heap scan: one round over every block, after which every candidate is exact; wall = io. */
  case object Scan extends Approach("Scan") {
    override private[engine] def chunk(p: CostParams, numBlocks: Int): Int = numBlocks
    override private[engine] def done(it: Iteration, task: MatchTask): Boolean = false
    override private[engine] def wall(cost: Cost, p: CostParams, vz: Int): Double = cost.ioUnits(p)
  }
  /** Sequential reads, per-candidate fixed-width criterion max delta_i <= delta/|V_Z|. */
  case object SlowMatch extends Approach("SlowMatch") {
    override private[engine] def done(it: Iteration, task: MatchTask): Boolean = it.deltaMax <= task.delta / task.vz
  }
  /** Sequential reads, HistSim criterion sum delta_i <= delta, no pruning. */
  case object ScanMatch extends Approach("ScanMatch")
  /** AnyActive pruning per individual block (Algorithm 2, cache-cold probes), no
    * lookahead, synchronous statistics: wall = io + coldProbes + perBlockStall.
    */
  case object SyncMatch extends Approach("SyncMatch") {
    /** The real system refreshes the deltas before every block; a statistics
      * iteration every 16 blocks keeps the loop tractable, and probes are still
      * charged per block. It does change block selection: at 1 block per round
      * every SyncMatch golden fingerprint changes, blocks read move by -3.2 %
      * to +0.2 % per run, and 9 of 18 matchings change order (not members).
      */
    override private[engine] def chunk(p: CostParams, numBlocks: Int): Int = 16
    override private[engine] def select(index: BitmapIndex, active: Array[Boolean], chunk: Array[Int],
                                        cost: Cost): Array[Int] =
      chunk.filter(Policies.syncAnyActive(index, active, _, cost))
    override private[engine] def wall(cost: Cost, p: CostParams, vz: Int): Double =
      cost.ioUnits(p) + cost.coldProbeUnits(p) + cost.stallUnits(p, vz)
  }
  /** Full FastMatch: AnyActive pruning with lookahead (Algorithm 3), async statistics. */
  case object FastMatch extends Approach("FastMatch") {
    override private[engine] def select(index: BitmapIndex, active: Array[Boolean], chunk: Array[Int],
                                        cost: Cost): Array[Int] =
      Policies.lookaheadAnyActive(index, active, chunk, cost)
    override private[engine] def wall(cost: Cost, p: CostParams, vz: Int): Double =
      math.max(cost.ioUnits(p) + cost.warmProbeUnits(p), cost.statsUnits(p, vz))
  }

  val all: Seq[Approach] = Seq(Scan, SlowMatch, ScanMatch, SyncMatch, FastMatch)
}

/** Inputs of one matching query, independent of approach. Validated here,
  * so that bad input fails where it enters rather than deep in a round.
  */
final case class MatchTask(
    vz: Int,
    vx: Int,
    k: Int,
    eps: Double,
    delta: Double,
    target: Array[Double],
) {
  require(vz >= 1, s"vz must be >= 1, got $vz")
  require(target.length == vx, s"target has ${target.length} bins, expected vx=$vx")
  require(k >= 1, s"k must be >= 1, got $k")
  require(eps > 0, s"eps must be > 0, got $eps")
  require(delta > 0 && delta < 1, s"delta must be in (0, 1), got $delta")
  require(target.forall(q => java.lang.Double.isFinite(q) && q >= 0),
    "target must be finite and non-negative")
  require(math.abs(target.sum - 1.0) <= 1e-9, s"target must sum to 1, sums to ${target.sum}")
}

/** Output of one matcher run.
  *
  * @param matching   estimated top-k candidate indices, tau-ascending
  * @param counts     final empirical histogram counts per candidate
  * @param tau        final estimated distances
  * @param deltaUpper final failure-probability bound (0 for Scan)
  * @param simTime    modeled wall time in tuple-units, at the [[CostParams]] defaults
  */
final case class RunResult(
    approach: String,
    matching: Array[Int],
    counts: Array[Array[Long]],
    tau: Array[Double],
    deltaUpper: Double,
    rounds: Int,
    cost: Cost,
    simTime: Double,
)

/** Drives the HistSim statistics engine against a block store — the
  * FastMatch system loop (Figure 5), run for every [[Approach]] with one
  * round body: collect the next chunk of unread blocks, select the blocks
  * to read, read them with one `visit`, mark the exhausted candidates and
  * iterate the statistics.
  */
object Matchers {

  def run(
      approach: Approach,
      task: MatchTask,
      reader: BlockReader,
      index: BitmapIndex,
      startBlock: Int,
  ): RunResult = {
    val params = CostParams()
    val b = reader.numBlocks
    require(b >= 1, "the store has no blocks")
    require(index.numBlocks == b, "index and reader disagree on block count")
    require(index.nCandidates == task.vz,
      s"index has ${index.nCandidates} candidates, task has vz=${task.vz}")
    val state = new HistSimState(task.vz, task.target)
    val cost = new Cost
    val sink = new Sink(state, cost, index)
    sink.markExhausted(approach, startBlock) // candidates with no tuples

    var iter: Iteration = Deviations.iterate(state, task.k, task.eps, task.delta)
    cost.statsIters += 1
    var rounds = 0

    val chunkBuf = new Array[Int](math.min(approach.chunk(params, b), b))
    var pos = math.floorMod(startBlock, b)
    var totalScanned = 0L

    /** Next up-to-chunkBuf.length unread blocks in circular storage order. */
    def collectChunk(): Array[Int] = {
      var n = 0
      var scanned = 0
      while (n < chunkBuf.length && scanned < b && sink.readCount < b) {
        if (!sink.isRead(pos)) { chunkBuf(n) = pos; n += 1 }
        pos += 1; if (pos == b) pos = 0
        scanned += 1
      }
      totalScanned += scanned
      java.util.Arrays.copyOf(chunkBuf, n)
    }

    while (!approach.done(iter, task) && sink.readCount < b) {
      val chunk = collectChunk()
      cost.blocksConsidered += chunk.length
      val toRead = approach.select(index, iter.active, chunk, cost)
      // a round that reads no block keeps the iteration, as the state is
      // unchanged, but the real system still runs (and pays for) it
      if (toRead.nonEmpty) {
        reader.visit(toRead, sink)
        sink.markExhausted(approach, startBlock)
        iter = Deviations.iterate(state, task.k, task.eps, task.delta)
      }
      cost.statsIters += 1
      rounds += 1
      // While the rule fails, an active candidate has an unread block, so
      // each pass reads one: only a reader that never reports a block read
      // (or an index that disagrees with it) gets here.
      if (totalScanned > 300L * b) throw new MatcherLivelock(approach, startBlock, totalScanned / b, sink.readCount)
    }
    cost.tuplesRead = state.n.sum // every tuple read is one sample

    // the state is not used after this point, so its tau is handed over
    RunResult(
      approach = approach.name,
      matching = iter.matching,
      counts = Array.tabulate(task.vz)(state.hist),
      tau = state.tau,
      deltaUpper = iter.deltaUpper,
      rounds = rounds,
      cost = cost,
      simTime = approach.wall(cost, params, task.vz),
    )
  }

  /** Takes in the blocks a run reads: adds their counts to the state's
    * `counts` and `n`, and counts the blocks in the cost and the read set.
    * Allocates nothing per block or tuple, and assumes no order of a
    * block's triples. After each visit, [[markExhausted]] marks the
    * candidates that have been read in full.
    */
  private[engine] final class Sink(state: HistSimState, cost: Cost, index: BitmapIndex) extends BlockVisitor {
    private val vz = state.nCandidates
    private val vx = state.vx
    private val counts = state.counts
    private val n = state.n
    private val numBlocks = index.numBlocks
    // the read set, one bit per block, laid out as the index's bitmaps
    private val read = new Array[Long]((numBlocks + 63) >>> 6)
    var readCount = 0
    private var block = -1 // the id of the block being read
    // without N_z: the first `covered(z)` words of z's bitmap hold only read blocks
    private val covered = if (index.hasTuples) null else new Array[Int](vz)

    def isRead(b: Int): Boolean = (read(b >>> 6) & (1L << b)) != 0

    override def startBlock(b: Int): Unit = {
      read(b >>> 6) |= 1L << b; readCount += 1
      cost.blocksRead += 1
      block = b
    }

    override def triple(z: Int, x: Int, c: Int): Unit = {
      // one sign test: z, x, c and the distances to the upper bounds are >= 0
      if ((z | x | c | (vz - 1 - z) | (vx - 1 - x)) < 0) bad(z, x, c)
      counts(z * vx + x) += c
      n(z) += c
    }

    private def bad(z: Int, x: Int, c: Int): Nothing =
      throw new IllegalArgumentException(
        if (z < 0 || z >= vz || x < 0 || x >= vx)
          s"block $block: candidate $z, group $x outside [0, $vz) × [0, $vx)"
        else s"block $block: negative count $c for candidate $z, group $x")

    /** Sampling without replacement: marks exact every candidate z whose
      * tuples have all been read, so that its histogram is the true one
      * and its deviation 0. One pass over the candidates, after each visit.
      *
      * With N_z in the index ([[BitmapIndex.tuples]]), z is exhausted once
      * n(z) = N_z: every block that holds z holds at least one tuple of z,
      * so this is the same as having read every block of z. Throws if a
      * candidate has more tuples read than N_z, or fewer once every block
      * is read: the reader and the index describe different stores.
      *
      * Without N_z, z is exhausted once every block of its bitmap is read,
      * tested from the first word not yet known to be covered. Both rules
      * mark the same candidates on the same reads.
      */
    def markExhausted(approach: Approach, startBlock: Int): Unit = {
      val exact = state.exact
      var z = 0
      if (index.hasTuples) {
        val allRead = readCount == numBlocks
        while (z < vz) {
          val total = index.tuples(z)
          if (n(z) >= total || allRead) {
            if (n(z) != total)
              throw new IllegalStateException(s"${approach.name} from block $startBlock: candidate $z has " +
                s"${n(z)} tuples read" + (if (n(z) > total) ", more than" else s" from all $numBlocks blocks, fewer than") +
                s" the index's N_z = $total")
            exact(z) = true
          }
          z += 1
        }
      } else {
        while (z < vz) {
          if (!exact(z)) {
            val w = index.words(z)
            var i = covered(z)
            while (i < w.length && (w(i) & ~read(i)) == 0) i += 1
            covered(z) = i
            exact(z) = i == w.length
          }
          z += 1
        }
      }
    }
  }
}

/** A run that made more than 300 passes over the store's blocks without
  * meeting its stopping rule: a reader that never reports a block read,
  * or an index whose bitmaps miss blocks the reader holds.
  */
final class MatcherLivelock(val approach: Approach, val startBlock: Int, val passes: Long, val readCount: Int)
    extends RuntimeException(
      s"${approach.name} from block $startBlock did not converge after $passes passes, $readCount blocks read")
