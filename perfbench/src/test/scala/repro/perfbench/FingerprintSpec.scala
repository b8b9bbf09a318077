package repro.perfbench

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite

class FingerprintSpec extends AnyFunSuite {

  private val fp = Fingerprint("TAXI", 22L, 0.25, "q1", "FastMatch", 1316, Seq(3, 0, 2), 264303L,
    4120L, 12288L, 0L, 62213L, 169L, 25L, java.lang.Double.doubleToRawLongBits(0.0087654321))

  test("a line parses back to the same fingerprint") {
    assert(Fingerprint.parse(fp.line) == fp)
  }

  test("negative bits, an empty matching and Scan's zero bound round-trip") {
    val odd = fp.copy(matching = Seq.empty, deltaUpperBits = java.lang.Double.doubleToRawLongBits(-0.0))
    assert(Fingerprint.parse(odd.line) == odd)
    val zero = fp.copy(approach = "Scan", deltaUpperBits = 0L)
    assert(Fingerprint.parse(zero.line) == zero)
  }

  test("a file written and read back holds the same fingerprints, keyed as written") {
    val path = Files.createTempFile("fingerprints", ".tsv")
    try {
      val fps = Seq(fp, fp.copy(start = 7), fp.copy(query = "q2", matching = Seq(1)))
      Fingerprint.write(path, fps)
      val back = Fingerprint.read(path)
      assert(back == fps)
      assert(back.map(_.key).toSet.size == 3)
      assert(Files.readAllLines(path).get(0) == Fingerprint.Header)
    } finally Files.delete(path)
  }

  test("diff names every changed field") {
    assert(fp.diff(fp).isEmpty)
    val changed = fp.copy(tuplesRead = 1L, matching = Seq(0, 3, 2))
    assert(changed.diff(fp).map(_.takeWhile(_ != ':')).toSet == Set("tuplesRead", "matching"))
  }

  test("a malformed line is rejected") {
    assertThrows[IllegalArgumentException](Fingerprint.parse("TAXI\t22"))
  }
}
