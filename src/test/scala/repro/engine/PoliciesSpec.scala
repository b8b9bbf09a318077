package repro.engine

import java.util.BitSet
import org.scalatest.funsuite.AnyFunSuite
import repro.index.BitmapIndex

class PoliciesSpec extends AnyFunSuite {

  /** Hand-built index: 4 candidates over 8 blocks, one tuple in each block of a candidate. */
  private def toyIndex: BitmapIndex = {
    val bitmaps = Array.fill(4)(new BitSet(8))
    // candidate 0 in blocks {0, 1}, 1 in {2, 3}, 2 in {4, 5, 6}, 3 in {7}
    bitmaps(0).set(0); bitmaps(0).set(1)
    bitmaps(1).set(2); bitmaps(1).set(3)
    bitmaps(2).set(4); bitmaps(2).set(5); bitmaps(2).set(6)
    bitmaps(3).set(7)
    new BitmapIndex(bitmaps, bitmaps.map(_.cardinality.toLong), 8)
  }

  test("syncAnyActive reads a block iff an active candidate is present") {
    val idx = toyIndex
    val active = Array(true, false, true, false)
    val cost = new Cost
    val reads = (0 until 8).map(b => Policies.syncAnyActive(idx, active, b, cost))
    assert(reads == Seq(true, true, false, false, true, true, true, false))
  }

  test("syncAnyActive probes until first hit, all actives on a skip") {
    val idx = toyIndex
    val cost = new Cost
    // active = {0, 2}: block 0 hits candidate 0 on the first probe
    assert(Policies.syncAnyActive(idx, Array(true, false, true, false), 0, cost))
    assert(cost.probesCold == 1)
    // block 4: misses candidate 0, hits candidate 2 -> 2 more probes
    assert(Policies.syncAnyActive(idx, Array(true, false, true, false), 4, cost))
    assert(cost.probesCold == 3)
    // block 7: no active candidate present -> both actives probed
    assert(!Policies.syncAnyActive(idx, Array(true, false, true, false), 7, cost))
    assert(cost.probesCold == 5)
  }

  test("no active candidates: nothing is read, nothing probed") {
    val idx = toyIndex
    val cost = new Cost
    assert(!Policies.syncAnyActive(idx, Array(false, false, false, false), 3, cost))
    assert(cost.probesCold == 0)
    val toRead = Policies.lookaheadAnyActive(idx, Array(false, false, false, false),
      Array.range(0, 8), cost)
    assert(toRead.isEmpty)
    assert(cost.probesWarm == 0 && cost.lineMisses == 0)
  }

  test("lookahead marks exactly the blocks containing active candidates") {
    val idx = toyIndex
    val active = Array(true, false, true, false)
    val cost = new Cost
    val toRead = Policies.lookaheadAnyActive(idx, active, Array.range(0, 8), cost)
    assert(toRead.toSeq == Seq(0, 1, 4, 5, 6))
  }

  test("lookahead and sync mark the same blocks given the same active set") {
    val rng = new java.util.Random(3)
    val bitmaps = Array.fill(6)(new BitSet(64))
    for (z <- 0 until 6; b <- 0 until 64 if rng.nextDouble() < 0.3) bitmaps(z).set(b)
    val idx = new BitmapIndex(bitmaps, bitmaps.map(_.cardinality.toLong), 64)
    for (trial <- 0 until 20) {
      val active = Array.fill(6)(rng.nextBoolean())
      val blocks = Array.range(0, 64).filter(_ => rng.nextDouble() < 0.7)
      val c1 = new Cost; val c2 = new Cost
      val la = Policies.lookaheadAnyActive(idx, active, blocks, c1)
      val sync = blocks.filter(b => Policies.syncAnyActive(idx, active, b, c2))
      assert(la.sameElements(sync), s"trial $trial")
    }
  }

  test("lookahead charges one line miss per examined active candidate") {
    val idx = toyIndex
    val cost = new Cost
    Policies.lookaheadAnyActive(idx, Array(true, true, true, true), Array.range(0, 8), cost)
    // all blocks get marked by the first three candidates; candidate 3
    // may or may not be examined depending on early exit
    assert(cost.lineMisses >= 3 && cost.lineMisses <= 4)
  }

  test("lookahead early-exits once every block is marked") {
    // candidate 0 present in all blocks: only one candidate examined
    val bitmaps = Array.fill(3)(new BitSet(8))
    (0 until 8).foreach(bitmaps(0).set)
    val idx = new BitmapIndex(bitmaps, bitmaps.map(_.cardinality.toLong), 8)
    val cost = new Cost
    val toRead = Policies.lookaheadAnyActive(idx, Array(true, true, true), Array.range(0, 8), cost)
    assert(toRead.sameElements(Array.range(0, 8)))
    assert(cost.lineMisses == 1)
    assert(cost.probesWarm == 7) // 8 probes, first charged as the miss
  }

  test("sync probing is cold, lookahead mostly warm (cost-model shape)") {
    val idx = toyIndex
    val params = CostParams()
    val active = Array(true, true, true, true)
    val cSync = new Cost
    (0 until 8).foreach(b => Policies.syncAnyActive(idx, active, b, cSync))
    val cLook = new Cost
    Policies.lookaheadAnyActive(idx, active, Array.range(0, 8), cLook)
    assert(cSync.coldProbeUnits(params) > cLook.warmProbeUnits(params))
  }

  /** Algorithm 3 probing bit by bit, as the paper states it: the
    * reference the word-parallel [[Policies.lookaheadAnyActive]] must
    * match in the blocks it reads and in its counters. Returns the blocks
    * marked :read, in the order of `blocks`.
    */
  private def bitProbingLookahead(index: BitmapIndex, active: Array[Boolean], blocks: Array[Int],
                                  cost: Cost): Array[Int] = {
    val mark = new Array[Boolean](blocks.length)
    var remaining = blocks.length
    var z = 0
    while (z < active.length && remaining > 0) {
      if (active(z)) {
        cost.lineMisses += 1
        var i = 0
        var probedThisCand = 0L
        while (i < blocks.length && remaining > 0) {
          if (!mark(i)) {
            probedThisCand += 1
            if (index.contains(z, blocks(i))) { mark(i) = true; remaining -= 1 }
          }
          i += 1
        }
        cost.probesWarm += math.max(0L, probedThisCand - 1)
      }
      z += 1
    }
    blocks.indices.filter(mark).map(blocks).toArray
  }

  test("word-parallel lookahead matches bit-probing Algorithm 3 in marks and counters") {
    val rng = new java.util.Random(11)
    var wrapped = 0; var gapped = 0
    for (trial <- 0 until 600) {
      val numBlocks = Seq(1, 5, 63, 64, 65, 127, 130, 700, 1000)(rng.nextInt(9))
      val vz = 1 + rng.nextInt(30)
      val density = Seq(0.0, 0.002, 0.02, 0.2, 0.9)(rng.nextInt(5))
      val bitmaps = Array.fill(vz)(new BitSet(numBlocks))
      for (z <- 0 until vz; b <- 0 until numBlocks if rng.nextDouble() < density) bitmaps(z).set(b)
      val idx = new BitmapIndex(bitmaps, bitmaps.map(_.cardinality.toLong), numBlocks)
      val active = trial % 4 match {
        case 0 => Array.fill(vz)(false)
        case 1 => Array.fill(vz)(true)
        case 2 => Array.fill(vz)(rng.nextDouble() < 0.1)
        case _ => Array.fill(vz)(rng.nextBoolean())
      }
      // a chunk as the matcher collects it: up to 512 unread blocks in
      // circular order from a start block, skipping blocks already read
      val read = Array.fill(numBlocks)(rng.nextDouble() < Seq(0.0, 0.3, 0.9)(rng.nextInt(3)))
      val start = rng.nextInt(numBlocks)
      val chunk = (0 until numBlocks).map(i => (start + i) % numBlocks).filterNot(read(_))
        .take(1 + rng.nextInt(512)).toArray
      if (chunk.length > 1 && chunk.last < chunk.head) wrapped += 1
      if (chunk.length > 1 && chunk.last - chunk.head >= chunk.length) gapped += 1
      val got = new Cost; val want = new Cost
      val toRead = Policies.lookaheadAnyActive(idx, active, chunk, got)
      val expected = bitProbingLookahead(idx, active, chunk, want)
      val what = s"trial $trial: numBlocks=$numBlocks vz=$vz chunk=${chunk.length}"
      assert(toRead.sameElements(expected), what)
      assert(got.probesWarm == want.probesWarm, what)
      assert(got.lineMisses == want.lineMisses, what)
      assert(got.probesCold == 0, what)
    }
    assert(wrapped > 50 && gapped > 50, s"wrapped=$wrapped gapped=$gapped")
  }

  test("word-parallel lookahead counts a block listed twice as two probes, like Algorithm 3") {
    val idx = toyIndex
    val blocks = Array(3, 4, 3, 7, 4, 0)
    for (active <- Seq(Array(true, true, false, false), Array(false, false, false, true))) {
      val got = new Cost; val want = new Cost
      val toRead = Policies.lookaheadAnyActive(idx, active, blocks, got)
      assert(toRead.sameElements(bitProbingLookahead(idx, active, blocks, want)))
      assert(got.probesWarm == want.probesWarm && got.lineMisses == want.lineMisses)
    }
  }
}
