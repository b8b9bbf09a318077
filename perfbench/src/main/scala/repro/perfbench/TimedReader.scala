package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import repro.engine.BlockReader

/** Times every `read` of the wrapped reader and records it as a span.
  * Results pass through untouched, so a matcher sees the same blocks.
  */
final class TimedReader(inner: BlockReader, tracer: Tracer) extends BlockReader {
  override def numBlocks: Int = inner.numBlocks

  /** Wall time of each read call, in ns, in call order. */
  val callNs: ArrayBuffer[Long] = ArrayBuffer.empty

  def totalNs: Long = callNs.sum

  override def read(blocks: Array[Int]): Array[Array[(Int, Int, Int)]] = {
    val t0 = System.nanoTime()
    val out = tracer.span("blockcounts.read")(inner.read(blocks))
    callNs += System.nanoTime() - t0
    out
  }
}
