package repro.perfbench

/** Minimal JSON text builders for the benchmark's output lines. */
object Json {

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  def int(v: Long): String = v.toString

  /** A finite number with all its digits; JSON has no NaN or infinity. */
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"not a finite number: $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def bool(v: Boolean): String = v.toString

  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
