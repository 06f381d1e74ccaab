package repro.join

import repro.{Oracle, SparkSpec, TestData}
import scala.util.Random

class LocalJoinIndexSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(Yannakakis.fullReduce(path))
  private lazy val truth: Array[Array[Double]] = TestData.materializePts(path)
  private lazy val truthSet: Set[Seq[Double]] = truth.map(_.toSeq).toSet

  private def boxOf(ranges: Map[String, (Double, Double)]): (Array[Double], Array[Double]) = {
    val (lo, hi) = index.fullBox
    ranges.foreach { case (a, (l, h)) => lo(index.attrIdx(a)) = l; hi(index.attrIdx(a)) = h }
    (lo, hi)
  }

  private def bruteCount(lo: Array[Double], hi: Array[Double]): Long =
    truth.count { t =>
      t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i))
    }.toLong

  test("n equals the Yannakakis join count") {
    assert(index.n == Yannakakis.countJoin(path).toDouble)
    assert(index.n == truth.length.toDouble)
  }

  test("attrs follow the query's global attribute order") {
    assert(index.attrs.toSeq == path.allAttrs)
  }

  test("countBox on the full box equals n") {
    val (lo, hi) = index.fullBox
    assert(index.countBox(lo, hi) == index.n)
  }

  test("CountRect matches brute force on 25 random boxes") {
    val rng = new Random(1)
    for (_ <- 1 to 25) {
      val attrsPicked = index.attrs.filter(_ => rng.nextBoolean()).toSeq
      val ranges = attrsPicked.map { a =>
        val c = rng.nextDouble() * 100
        val w = rng.nextDouble() * 60
        a -> (c - w, c + w)
      }.toMap
      val (lo, hi) = boxOf(ranges)
      assert(index.countBox(lo, hi) == bruteCount(lo, hi).toDouble,
        s"box $ranges")
    }
  }

  test("CountRect matches DuckDB on a fixed box") {
    val (lo, hi) = boxOf(Map("a1" -> (20.0, 60.0), "b" -> (0.0, 50.0)))
    val cnt = index.countBox(lo, hi).toLong
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt " + TestData.pathJoinSql +
        " AND CAST(r1.a1 AS DOUBLE) BETWEEN 20 AND 60" +
        " AND CAST(r1.b AS DOUBLE) BETWEEN 0 AND 50",
      path.relations.map(r => r.name -> r.df): _*)
  }

  test("CountRect of an empty box is 0") {
    val (lo, hi) = boxOf(Map("a1" -> (1e9, 2e9)))
    assert(index.countBox(lo, hi) == 0.0)
  }

  test("SampleRect samples are genuine join tuples inside the box") {
    val rng = new Random(2)
    val (lo, hi) = boxOf(Map("a1" -> (10.0, 80.0), "a2" -> (0.0, 70.0)))
    val s = index.sampleBox(lo, hi, 200, rng)
    assert(s.nonEmpty)
    s.foreach { t =>
      assert(truthSet.contains(t.toSeq), "sample is not a join result")
      t.indices.foreach(i => assert(t(i) >= lo(i) && t(i) <= hi(i)))
    }
  }

  test("SampleRect of an empty box returns no samples") {
    val (lo, hi) = boxOf(Map("a2" -> (-1e9, -1e8)))
    assert(index.sampleBox(lo, hi, 10, new Random(3)).isEmpty)
  }

  test("sampleUniform returns genuine join tuples") {
    val s = index.sampleUniform(500, new Random(4))
    assert(s.length == 500)
    s.foreach(t => assert(truthSet.contains(t.toSeq)))
  }

  test("sampleUniform is (approximately) uniform over the join") {
    // frequency of a half-space event under sampling vs its true mass
    val rng = new Random(5)
    val s = index.sampleUniform(4000, rng)
    val i = index.attrIdx("a1")
    val pTrue = truth.count(_(i) <= 50.0).toDouble / truth.length
    val pHat = s.count(_(i) <= 50.0).toDouble / s.length
    assert(math.abs(pHat - pTrue) < 0.04, s"pHat=$pHat pTrue=$pTrue")
  }

  test("sampleUniform respects join multiplicities (heavy key sampled more)") {
    // group by key b: sampled mass per b-bucket tracks true mass
    val rng = new Random(6)
    val s = index.sampleUniform(4000, rng)
    val i = index.attrIdx("b")
    val pTrue = truth.count(_(i) <= 33.0).toDouble / truth.length
    val pHat = s.count(_(i) <= 33.0).toDouble / s.length
    assert(math.abs(pHat - pTrue) < 0.04, s"pHat=$pHat pTrue=$pTrue")
  }

  test("index on an unreduced query still counts correctly") {
    val raw = LocalJoinIndex.build(path) // no fullReduce
    assert(raw.n == index.n)
  }

  test("-0.0 and 0.0 join keys match, as in Spark's equi-join") {
    val r1 = Seq((1.0, -0.0), (2.0, 0.0)).toDF("a1", "b")
    val r2 = Seq((0.0, 5.0)).toDF("b", "a2")
    val q = GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
    val idx = LocalJoinIndex.build(q)
    assert(Yannakakis.countJoin(q) == 2L)
    assert(idx.n == 2.0)
    assert(idx.histogram("b").map(_._2).sum == 2.0)
  }

  test("works on the TPC-H FK join") {
    val tpch = TestData.tpchQuery(spark)
    val idx = LocalJoinIndex.build(Yannakakis.fullReduce(tpch))
    assert(idx.n == Yannakakis.countJoin(tpch).toDouble)
    val s = idx.sampleUniform(50, new Random(7))
    assert(s.length == 50)
    assert(s.forall(_.length == idx.dim))
  }
}
