package repro

import org.scalatest.funsuite.AnyFunSuite

class CheckedSpec extends AnyFunSuite {

  test("asInt passes integral values that fit an Int") {
    assert(Checked.asInt(7) == 7)
    assert(Checked.asInt(Int.MaxValue.toLong) == Int.MaxValue)
    assert(Checked.asInt(Int.MinValue.toLong: Any) == Int.MinValue)
  }

  test("asInt throws on overflow instead of wrapping") {
    intercept[ArithmeticException](Checked.asInt(Int.MaxValue.toLong + 1))
    intercept[ArithmeticException](Checked.asInt((1L << 32): Any))
  }

  test("asInt rejects non-integral values") {
    intercept[IllegalStateException](Checked.asInt(1.5: Any))
    intercept[IllegalStateException](Checked.asInt("1": Any))
  }
}
