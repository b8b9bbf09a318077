package repro

/** Checked narrowing of the integral values Spark rows hold: an id or a
  * count that does not fit an `Int` throws instead of wrapping silently.
  */
object Checked {

  def asInt(l: Long): Int = Math.toIntExact(l)

  def asInt(v: Any): Int = v match {
    case i: Int  => i
    case l: Long => asInt(l)
    case other   => throw new IllegalStateException(s"expected integral value, got $other")
  }
}
