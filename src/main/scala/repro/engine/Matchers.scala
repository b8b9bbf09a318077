package repro.engine

import repro.core.{Deviations, HistSimState, Iteration}
import repro.index.BitmapIndex

/** The five approaches of Section 5.2. */
sealed abstract class Approach(val name: String)
object Approach {
  /** Exact heap scan over all blocks — trivially satisfies both guarantees. */
  case object Scan extends Approach("Scan")
  /** Sequential reads, per-candidate fixed-width criterion max delta_i <= delta/|V_Z|. */
  case object SlowMatch extends Approach("SlowMatch")
  /** Sequential reads, HistSim criterion sum delta_i <= delta, no pruning. */
  case object ScanMatch extends Approach("ScanMatch")
  /** AnyActive pruning per individual block, no lookahead (cache-cold probes). */
  case object SyncMatch extends Approach("SyncMatch")
  /** Full FastMatch: AnyActive pruning with lookahead + async statistics. */
  case object FastMatch extends Approach("FastMatch")

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
  * FastMatch system loop (Figure 5) and its degraded variants.
  *
  * The real system runs I/O, sampling and statistics in separate threads;
  * here the loop is single-threaded and the *wall-clock consequences* of
  * (a)synchrony are produced by the cost model:
  *
  *   Scan       wall = io
  *   Slow/Scan  wall = max(io, stats)                  (stats async)
  *   SyncMatch  wall = io + coldProbes + perBlockStall (all serial)
  *   FastMatch  wall = max(io + warmProbes, stats)     (stats async)
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
    require(index.numBlocks == b, "index and reader disagree on block count")
    require(index.nCandidates == task.vz,
      s"index has ${index.nCandidates} candidates, task has vz=${task.vz}")
    val state = new HistSimState(task.vz, task.target)
    val cost = new Cost
    val sink = new Sink(state, cost, index, b)

    var iter: Iteration = Deviations.iterate(state, task.k, task.eps, task.delta)
    cost.statsIters += 1
    var rounds = 0

    def terminated(it: Iteration): Boolean = approach match {
      case Approach.Scan      => false
      case Approach.SlowMatch => it.deltaMax <= task.delta / task.vz
      case _                  => it.deltaUpper <= task.delta
    }

    val chunkLen = approach match {
      case Approach.SyncMatch => params.syncStatsEvery
      case Approach.FastMatch => params.lookahead
      case _                  => params.roundBlocks
    }
    val chunkBuf = new Array[Int](math.min(chunkLen, b))
    var pos = math.floorMod(startBlock, b)
    var totalScanned = 0L

    /** Next up-to-chunkLen unread blocks in circular storage order. */
    def collectChunk(): Array[Int] = {
      var n = 0
      var scanned = 0
      while (n < chunkBuf.length && scanned < b && sink.readCount < b) {
        if (!sink.readSet.get(pos)) { chunkBuf(n) = pos; n += 1 }
        pos += 1; if (pos == b) pos = 0
        scanned += 1
      }
      totalScanned += scanned
      java.util.Arrays.copyOf(chunkBuf, n)
    }

    def runStats(): Unit = {
      iter = Deviations.iterate(state, task.k, task.eps, task.delta)
      cost.statsIters += 1
      rounds += 1
    }

    var done = terminated(iter)
    while (!done && sink.readCount < b) {
      val chunk = collectChunk()
      cost.blocksConsidered += chunk.length
      // AnyActive: Algorithm 2 per block, or Algorithm 3 over the chunk
      val toRead = approach match {
        case Approach.SyncMatch => chunk.filter(Policies.syncAnyActive(index, iter.active, _, cost))
        case Approach.FastMatch => Policies.lookaheadAnyActive(index, iter.active, chunk, cost)
        case _                  => chunk
      }
      if (toRead.nonEmpty) reader.visit(toRead, sink)
      if (approach != Approach.Scan) runStats()
      done = terminated(iter)
      // Safety: a pruning pass that reads nothing can only happen once the
      // criterion holds; guard against pathological livelock regardless.
      if (totalScanned > 300L * b) throw new MatcherLivelock(approach, startBlock, totalScanned / b, sink.readCount)
    }

    if (approach == Approach.Scan) runStats() // produce the exact ordering
    cost.tuplesRead = state.n.sum // every tuple read is one sample

    val wall = approach match {
      case Approach.Scan => cost.ioUnits(params)
      case Approach.SlowMatch | Approach.ScanMatch =>
        math.max(cost.ioUnits(params), cost.statsUnits(params, task.vz))
      case Approach.SyncMatch =>
        cost.ioUnits(params) + cost.coldProbeUnits(params) + cost.stallUnits(params, task.vz)
      case Approach.FastMatch =>
        math.max(cost.ioUnits(params) + cost.warmProbeUnits(params),
                 cost.statsUnits(params, task.vz))
    }

    // the state is not used after this point, so its tau is handed over
    RunResult(
      approach = approach.name,
      matching = iter.matching,
      counts = Array.tabulate(task.vz)(state.hist),
      tau = state.tau,
      deltaUpper = if (approach == Approach.Scan) 0.0 else iter.deltaUpper,
      rounds = rounds,
      cost = cost,
      simTime = wall,
    )
  }

  /** Takes in the blocks a run reads: adds their counts to the state's
    * `counts` and `n`, counts the blocks in the cost, marks candidates
    * exact once every block holding them is read, and marks each candidate
    * a block holds dirty. Allocates nothing per block or tuple, and
    * assumes no order of a block's triples.
    */
  private final class Sink(state: HistSimState, cost: Cost, index: BitmapIndex, numBlocks: Int)
      extends BlockVisitor {
    private val vz = state.nCandidates
    private val vx = state.vx
    private val counts = state.counts
    private val n = state.n
    private val exact = state.exact
    private val dirty = state.dirty
    val readSet = new java.util.BitSet(numBlocks)
    var readCount = 0

    // Sampling without replacement: once every block containing candidate
    // z has been read, z's histogram is exact and its deviation is 0.
    private val blocksLeft = Array.tabulate(vz)(index.blockCount)
    // lastBlock(z): the number (1, 2, ...) of the last block read that held
    // z. z is new to the current block iff lastBlock(z) != blockNo.
    private val lastBlock = new Array[Int](vz)
    private var blockNo = 0
    private var block = -1 // the id of the block being read

    { var z = 0; while (z < vz) { if (blocksLeft(z) == 0) exact(z) = true; z += 1 } }

    override def startBlock(b: Int): Unit = {
      readSet.set(b); readCount += 1
      cost.blocksRead += 1
      blockNo += 1
      block = b
    }

    override def triple(z: Int, x: Int, c: Int): Unit = {
      // one sign test: z, x, c and the distances to the upper bounds are >= 0
      if ((z | x | c | (vz - 1 - z) | (vx - 1 - x)) < 0) bad(z, x, c)
      counts(z * vx + x) += c
      n(z) += c
      if (lastBlock(z) != blockNo) {
        lastBlock(z) = blockNo
        dirty(z) = true
        blocksLeft(z) -= 1
        if (blocksLeft(z) == 0) exact(z) = true
      }
    }

    private def bad(z: Int, x: Int, c: Int): Nothing =
      throw new IllegalArgumentException(
        if (z < 0 || z >= vz || x < 0 || x >= vx)
          s"block $block: candidate $z, group $x outside [0, $vz) × [0, $vx)"
        else s"block $block: negative count $c for candidate $z, group $x")
  }
}

/** A run that made more than 300 passes over the store's blocks without
  * meeting its stopping rule: a reader that never reports a block read, or
  * a pruning policy that reads nothing while the criterion fails.
  */
final class MatcherLivelock(val approach: Approach, val startBlock: Int, val passes: Long, val readCount: Int)
    extends RuntimeException(
      s"${approach.name} from block $startBlock did not converge after $passes passes, $readCount blocks read")
