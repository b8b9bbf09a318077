package repro.engine

import repro.index.BitmapIndex

/** Block-selection policies (Section 4.2, Challenges 2 and 3).
  *
  * Both AnyActive variants mark a block :read iff it contains at least
  * one tuple of an active candidate; they differ only in probing pattern,
  * which the cost model prices differently:
  *
  *  - [[syncAnyActive]] — Algorithm 2: per single block, candidates
  *    probed in order until the first hit. Every probe is cache-cold.
  *  - [[lookaheadAnyActive]] — Algorithm 3: candidate-major over a chunk
  *    of `lookahead` consecutive blocks; each (candidate, chunk) pass
  *    touches one cache line of the candidate's bitmap (one miss, rest
  *    hits) and skips already-marked blocks. It is computed 64 blocks
  *    per word operation but counted per block, as Algorithm 3 probes.
  */
object Policies {

  /** Algorithm 2 for one block. Returns whether to read; accounts cold
    * probes into `cost`.
    */
  def syncAnyActive(index: BitmapIndex, active: Array[Boolean], block: Int, cost: Cost): Boolean = {
    var z = 0
    while (z < active.length) {
      if (active(z)) {
        cost.probesCold += 1
        if (index.contains(z, block)) return true
      }
      z += 1
    }
    false
  }

  /** Algorithm 3 over a chunk of blocks. Returns the blocks marked :read,
    * in the order of `blocks`; accounts warm probes plus one line miss per
    * examined (candidate, chunk) into `cost`.
    *
    * The chunk's still-open blocks are kept as 64-bit word masks, one per
    * run of consecutive blocks sharing a bitmap word, and each active
    * candidate's pass ANDs its bitmap words with them and clears the hits:
    * 64 blocks per operation. The counters are Algorithm 3's bit-by-bit
    * ones. A pass starting with `remaining` open blocks probes each of them
    * once (it can stop early only at the last open block), so it costs one
    * line miss plus `remaining - 1` warm probes, and the modeled time is
    * that of the bit-probing algorithm.
    */
  def lookaheadAnyActive(index: BitmapIndex, active: Array[Boolean], blocks: Array[Int],
                         cost: Cost): Array[Int] = {
    val n = blocks.length
    // Slot s holds the open blocks of one run of `blocks` that share bitmap
    // word word(s); a block already in the run (listed twice) starts a new
    // slot. The runs are found twice, here and when collecting the reads,
    // with the current run's bits kept in a register. A chunk of consecutive
    // blocks needs n/64 + 2 slots; the arrays grow for scattered ones.
    var word = new Array[Int]((n >>> 6) + 2)
    var open = new Array[Long](word.length)
    var slots = 0
    var w = -1
    var run = 0L
    var i = 0
    while (i < n) {
      val b = blocks(i)
      val bit = 1L << b
      if ((b >>> 6) != w || (run & bit) != 0L) {
        if (slots > 0) open(slots - 1) = run
        if (slots == word.length) {
          word = java.util.Arrays.copyOf(word, 2 * slots)
          open = java.util.Arrays.copyOf(open, 2 * slots)
        }
        w = b >>> 6
        word(slots) = w
        slots += 1
        run = 0L
      }
      run |= bit
      i += 1
    }
    if (slots > 0) open(slots - 1) = run
    var remaining = n
    var z = 0
    while (z < active.length && remaining > 0) {
      if (active(z)) {
        cost.lineMisses += 1
        // the first probe of the chunk is the line miss already counted
        cost.probesWarm += remaining - 1
        val bits = index.words(z)
        var s = 0
        while (s < slots && remaining > 0) {
          val hit = open(s) & bits(word(s))
          if (hit != 0L) { open(s) &= ~hit; remaining -= java.lang.Long.bitCount(hit) }
          s += 1
        }
      }
      z += 1
    }
    // a block is read iff its bit was cleared from its slot
    if (remaining == n) return new Array[Int](0)
    if (remaining == 0) return blocks.clone()
    val toRead = new Array[Int](n - remaining)
    var r = 0
    var s = -1
    var left = 0L
    w = -1
    run = 0L
    i = 0
    while (i < n) {
      val b = blocks(i)
      val bit = 1L << b
      if ((b >>> 6) != w || (run & bit) != 0L) { s += 1; w = b >>> 6; left = open(s); run = 0L }
      run |= bit
      if ((left & bit) == 0L) { toRead(r) = b; r += 1 }
      i += 1
    }
    toRead
  }
}
