package repro.engine

/** Calibration constants for the simulated wall-clock model.
  *
  * The paper's Table 4 measures a C++ system whose performance hinges on
  * storage/caching effects Spark does not expose. We therefore account
  * costs explicitly, in units of one tuple read+processed (~30 ns in the
  * paper's environment, from Scan's 604M tuples / 18.3 s):
  *
  *   - tTuple:        reading + histogramming one tuple during a block read
  *   - tMissProbe:    one bitmap probe with a cache-cold line (SyncMatch's
  *                    per-block probing evicts the line between probes)
  *   - tHitProbe:     one bitmap probe within a cache-resident line
  *                    (lookahead walks 512 consecutive bits per candidate,
  *                    paying one miss per line — Section 4.2, Challenge 3)
  *   - tStatOpPerCand: statistics-engine work per candidate per HistSim
  *                    iteration (the O(|V_Z| * k) selection of the k + 1
  *                    closest candidates, the O(touched * |V_X|) tau
  *                    refresh and the deviation assignment, amortized per
  *                    candidate)
  *   - syncStallFactor: SyncMatch blocks the sampling engine on a fresh
  *                    {delta_i} before each block decision; the expected
  *                    wait is a fraction of one statistics iteration
  *
  * Per-approach wall formulas live in [[Matchers]]; asynchronous
  * components (FastMatch/ScanMatch statistics) contribute max(), serial
  * ones (SyncMatch) contribute sums.
  */
final case class CostParams(
    tTuple: Double = 1.0,
    tMissProbe: Double = 1.5,
    tHitProbe: Double = 1.5 / 64.0,
    tStatOpPerCand: Double = 0.1,
    syncStallFactor: Double = 0.5,
    /** Blocks marked per lookahead batch (paper default 512). */
    lookahead: Int = 512,
    /** Blocks between statistics iterations for ScanMatch/SlowMatch. */
    roundBlocks: Int = 512,
    /** Simulation granularity of SyncMatch's "freshest delta" updates:
      * a statistics iteration every this many considered blocks. The
      * real system refreshes per block; 16 keeps the simulation
      * tractable with no observable effect on block selection.
      */
    syncStatsEvery: Int = 16,
)

/** Mutable cost accumulator for one matcher run. */
final class Cost {
  var tuplesRead: Long = 0
  var blocksRead: Long = 0
  var blocksConsidered: Long = 0
  var probesCold: Long = 0
  var probesWarm: Long = 0
  var lineMisses: Long = 0
  var statsIters: Long = 0

  def ioUnits(p: CostParams): Double = tuplesRead * p.tTuple
  def coldProbeUnits(p: CostParams): Double = probesCold * p.tMissProbe
  def warmProbeUnits(p: CostParams): Double =
    probesWarm * p.tHitProbe + lineMisses * p.tMissProbe
  def statsUnits(p: CostParams, vz: Int): Double = statsIters * vz * p.tStatOpPerCand
  def stallUnits(p: CostParams, vz: Int): Double =
    blocksConsidered * p.syncStallFactor * p.tStatOpPerCand * vz
}
