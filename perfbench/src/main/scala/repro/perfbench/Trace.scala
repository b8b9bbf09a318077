package repro.perfbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer

/** A timed call into one layer. `parent` is the enclosing span's id (-1
  * at the top); `query` and `startBlock` identify the request it served.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      query: String, startBlock: Int)

/** Records spans in memory; writes them out once, at the end of a run.
  * When disabled, [[span]] only evaluates its body. Single-threaded, like
  * the benchmark itself.
  */
final class Tracer(val enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open = List.empty[(Int, String, Int)] // (id, query, startBlock)
  private var nextId = 0
  private val origin = System.nanoTime()

  /** Times `body` as a span; query and start block default to the
    * enclosing span's.
    */
  def span[T](name: String, query: String = null, startBlock: Int = Int.MinValue)(body: => T): T =
    if (!enabled) body
    else {
      val (parent, q0, s0) = open.headOption.getOrElse((-1, "", -1))
      val q = if (query == null) q0 else query
      val s = if (startBlock == Int.MinValue) s0 else startBlock
      val id = nextId
      nextId += 1
      open = (id, q, s) :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, parent, name, t0 - origin, t1 - origin, q, s)
      }
    }

  def spans: Seq[Span] = done.toSeq

  def writeJsonl(path: java.nio.file.Path): Unit = {
    val out = new PrintWriter(path.toFile, "UTF-8")
    try done.sortBy(_.id).foreach { s =>
      out.println(Json.obj(
        "id" -> Json.int(s.id), "parent" -> Json.int(s.parent), "name" -> Json.str(s.name),
        "start_ns" -> Json.int(s.startNs), "end_ns" -> Json.int(s.endNs),
        "query" -> Json.str(s.query), "start_block" -> Json.int(s.startBlock)))
    }
    finally out.close()
  }
}
