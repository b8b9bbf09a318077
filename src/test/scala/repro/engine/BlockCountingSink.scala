package repro.engine

import repro.index.BitmapIndex

/** Exhaustion decided by counting blocks, the form `Matchers`' sink had
  * before exhaustion was decided from tuple counts: the first time a block
  * holds candidate z, z is marked dirty and its count of unread blocks goes
  * down by one, and z is exact once that count reaches 0. Candidates with
  * no block are exact from the start. Kept as the oracle that
  * [[Matchers.markExhausted]] and the refresh rule of
  * `Deviations.iterate` must match.
  */
final class BlockCountingSink(index: BitmapIndex) extends BlockVisitor {
  private val vz = index.nCandidates
  private val blocksLeft = Array.tabulate(vz)(index.blockCount)
  // lastBlock(z): the number (1, 2, ...) of the last block read that held
  // z. z is new to the current block iff lastBlock(z) != blockNo.
  private val lastBlock = new Array[Int](vz)
  private var blockNo = 0

  val exact: Array[Boolean] = blocksLeft.map(_ == 0)
  val dirty: Array[Boolean] = new Array[Boolean](vz)

  override def startBlock(b: Int): Unit = blockNo += 1

  override def triple(z: Int, x: Int, c: Int): Unit =
    if (lastBlock(z) != blockNo) {
      lastBlock(z) = blockNo
      dirty(z) = true
      blocksLeft(z) -= 1
      if (blocksLeft(z) == 0) exact(z) = true
    }
}
