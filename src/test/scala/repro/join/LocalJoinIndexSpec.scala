package repro.join

import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DecimalType
import repro.{Oracle, SparkSpec, TestData}
import scala.util.Random

class LocalJoinIndexSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(path)
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

  test("CountRect matches DuckDB per-tuple participation counts") {
    // a box pinning b and c to the values of an r2 tuple counts the join results that tuple takes part in
    val got = path.relation("r2").df.distinct().collect().toSeq.flatMap { r =>
      val (b, c) = (r.getAs[Double]("b"), r.getAs[Double]("c"))
      val (lo, hi) = boxOf(Map("b" -> (b, b), "c" -> (c, c)))
      Some((b, c, index.countBox(lo, hi).toLong)).filter(_._3 > 0)
    }
    Oracle.assertEquivalent(
      got.toDF("b", "c", "cnt"),
      "SELECT CAST(r2.b AS DOUBLE) AS b, CAST(r2.c AS DOUBLE) AS c, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY r2.b, r2.c",
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
    val reduced = LocalJoinIndex.build(Yannakakis.fullReduce(path))
    assert(index.n == reduced.n)
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

  /** The driver-reduced index of `q` is the index of Spark's semi-join
    * reduction of `q` ([[SemiJoinReducer]]): same n, same bounds, same
    * uniform samples.
    */
  private def assertSameAsSparkReduced(q: AcyclicQuery): Unit = {
    val mine = LocalJoinIndex.build(q)
    val viaSpark = LocalJoinIndex.build(SemiJoinReducer.fullReduce(q))
    assert(mine.n == viaSpark.n)
    assert(mine.bounds._1.toSeq == viaSpark.bounds._1.toSeq)
    assert(mine.bounds._2.toSeq == viaSpark.bounds._2.toSeq)
    for (s <- 1 to 3) {
      val same = mine.sampleUniform(500, new Random(s)).map(_.toSeq).toSeq ==
        viaSpark.sampleUniform(500, new Random(s)).map(_.toSeq).toSeq
      assert(same, s"samples differ for seed $s")
    }
  }

  test("build(q) equals build(fullReduce(q)) on the path join rooted at r1") {
    // Spark's semi-join puts the key first: the reference's reduced r1 comes back as (b, a1)
    assert(SemiJoinReducer.fullReduce(path).relation("r1").attrs == Seq("b", "a1"))
    assertSameAsSparkReduced(path)
  }

  test("build(q) equals build(fullReduce(q)) rooted at r2, in either column order") {
    // the root's sample order is its row order: Spark moves each semi-join key first
    for (cols <- Seq(Seq("b", "c"), Seq("c", "b"))) {
      val r2 = path.relation("r2").copy(df = path.relation("r2").df.select(cols.map(col): _*))
      assertSameAsSparkReduced(path.copy(relations = r2 +: path.relations.filter(_.name != "r2")))
    }
  }

  test("build(q) equals build(fullReduce(q)) when most rows dangle") {
    val q = TestData.danglingPathQuery(spark)
    // r2's rows with c > 20 dangle and are dropped on the driver
    assert(path.relation("r2").df.where($"c" > 20).count() > 0)
    assert(LocalJoinIndex.build(q).bounds._2(index.attrIdx("c")) <= 20)
    assertSameAsSparkReduced(q)
  }

  test("build(q) equals build(fullReduce(q)) on the 4-chain and on TPC-H-lite") {
    assertSameAsSparkReduced(TestData.chainQuery(spark))
    assertSameAsSparkReduced(TestData.tpchQuery(spark))
  }

  test("a row with a null join key dangles, as in Spark's equi-join") {
    val r1 = Seq((1.0, Option(5.0)), (2.0, None), (3.0, Option(5.0))).toDF("a1", "b")
    val r2 = Seq((5.0, 7.0), (5.0, 8.0)).toDF("b", "a2")
    val q = GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
    assert(Yannakakis.countJoin(q) == 4L)
    assert(LocalJoinIndex.build(q).n == 4.0)
  }

  test("a null value column or a NaN is rejected, naming the relation and the column") {
    val r2 = Seq((5.0, 7.0)).toDF("b", "a2")
    for (r1 <- Seq(Seq((Option.empty[Double], 5.0)).toDF("a1", "b"),
                   Seq((Double.NaN, 5.0)).toDF("a1", "b"))) {
      val q = GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
      val e = intercept[IllegalArgumentException](LocalJoinIndex.build(q))
      assert(e.getMessage.contains("z1") && e.getMessage.contains("a1"), e.getMessage)
    }
  }

  /** countBox equals the brute-force count over the materialized join, and
    * every sampleBox draw is a join tuple inside the box, for boxes that
    * constrain each attribute set of `constrained` (quantile ranges of the
    * join's own values), for the full box, and for an empty range.
    */
  private def assertBoxesMatchBruteForce(q: AcyclicQuery, constrained: Seq[Seq[String]]): Unit = {
    val idx = LocalJoinIndex.build(q)
    val pts = TestData.materializePts(q)
    val tuples = pts.map(_.toSeq).toSet
    val rng = new Random(9)
    def rangeBox(as: Seq[String]): (Array[Double], Array[Double]) = {
      val (lo, hi) = idx.fullBox
      as.foreach { a =>
        val vs = pts.map(_(idx.attrIdx(a))).sorted
        val i = rng.nextInt(vs.length / 2)
        lo(idx.attrIdx(a)) = vs(i)
        hi(idx.attrIdx(a)) = vs(i + rng.nextInt(vs.length - i))
      }
      (lo, hi)
    }
    val (eLo, eHi) = idx.fullBox
    eLo(0) = 1.0; eHi(0) = 0.0
    val boxes = constrained.map(as => as -> Seq.fill(4)(rangeBox(as))) ++
      Seq(Seq("nothing") -> Seq(idx.fullBox), Seq("empty range") -> Seq((eLo, eHi)))
    for ((as, bs) <- boxes) {
      val counts = bs.map { case (lo, hi) =>
        val want = pts.count(t => t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i)))
        assert(idx.countBox(lo, hi) == want.toDouble, s"box on $as: ${lo.toSeq} .. ${hi.toSeq}")
        val s = idx.sampleBox(lo, hi, 50, rng)
        assert(s.length == (if (want > 0) 50 else 0), s"box on $as")
        s.foreach { t =>
          assert(tuples.contains(t.toSeq), s"box on $as: sample is not a join result")
          assert(t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i)), s"box on $as: sample outside")
        }
        want
      }
      as match {
        case Seq("nothing")     => assert(counts == Seq(pts.length))
        case Seq("empty range") => assert(counts == Seq(0))
        case _ => assert(counts.exists(c => c > 0 && c < pts.length), s"no box on $as cuts the join")
      }
    }
  }

  test("CountRect/SampleRect match brute force on TPC-H-lite: root, leaf, both, nothing, empty") {
    val tpch = TestData.tpchQuery(spark)
    // lineitem(okey, qty, price) is the root, customer(ckey, bal) the leaf
    assertBoxesMatchBruteForce(tpch, Seq(Seq("qty", "price"), Seq("bal"), Seq("qty", "bal")))
  }

  test("CountRect/SampleRect match brute force on the path join rooted at r2 (two children)") {
    val atR2 = path.copy(relations = path.relation("r2") +: path.relations.filter(_.name != "r2"))
    assert(atR2.rooted("r2").children.map(_.rel.name).toSet == Set("r1", "r3"))
    // root only, one leaf, one attribute in each sibling subtree
    val sets = Seq(Seq("b", "c"), Seq("a2"), Seq("a1", "a2"))
    assertBoxesMatchBruteForce(atR2, sets)
    // r2's rows with c > 20 find no r3 group when the build counts participation
    assertBoxesMatchBruteForce(atR2.withDfs(Map("r3" -> TestData.danglingPathQuery(spark).relation("r3").df)), sets)
  }

  test("CountRect/SampleRect match brute force on the path join rooted at r1 and on the 4-chain") {
    // root only, a key shared by root and child, a middle relation, the deepest leaf
    assertBoxesMatchBruteForce(path, Seq(Seq("a1", "b"), Seq("b", "c"), Seq("c"), Seq("a2")))
    assertBoxesMatchBruteForce(TestData.chainQuery(spark), Seq(Seq("a1"), Seq("c", "d"), Seq("d", "a2"), Seq("b", "a2")))
  }

  test("CountRect of a box cutting both columns of r2, c the narrower, matches brute force") {
    val r2 = path.relation("r2").df.collect().map(r => (r.getAs[Double]("b"), r.getAs[Double]("c")))
    val (b0, c0) = r2(r2.length / 2)
    val bRange = (b0 - 15, b0 + 15)
    val cRange = (c0, c0 + 1)
    def within(r: (Double, Double), x: Double) = x >= r._1 && x <= r._2
    // both ranges cut r2, and the one on its second column holds fewer rows
    assert(r2.count(t => within(cRange, t._2)) < r2.count(t => within(bRange, t._1)))
    assert(r2.count(t => within(bRange, t._1)) < r2.length)
    val (lo, hi) = boxOf(Map("b" -> bRange, "c" -> cRange))
    assert(bruteCount(lo, hi) > 0)
    assert(index.countBox(lo, hi) == bruteCount(lo, hi).toDouble)
  }

  test("CountRect matches brute force on half-infinite boxes and is 0 when lo > hi") {
    for (a <- index.attrs; x <- Seq(20.0, 50.0)) {
      for (r <- Seq((Double.NegativeInfinity, x), (x, Double.PositiveInfinity))) {
        val (lo, hi) = boxOf(Map(a -> r))
        assert(index.countBox(lo, hi) == bruteCount(lo, hi).toDouble, s"$a in $r")
      }
      val (lo, hi) = boxOf(Map(a -> (x, x - 1)))
      assert(index.countBox(lo, hi) == 0.0 && index.sampleBox(lo, hi, 5, new Random(8)).isEmpty)
    }
  }

  test("a box bound of -0.0 selects stored 0.0 values, as 0.0 would") {
    // -0.0 is stored as 0.0; a search that ordered -0.0 below 0.0 would drop those rows at hi = -0.0
    val r1 = Seq((-0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, -0.0)).toDF("a1", "b")
    val r2 = Seq((0.0, 5.0), (1.0, -0.0), (1.0, 0.0), (0.0, 3.0)).toDF("b", "a2")
    val q = GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
    val idx = LocalJoinIndex.build(q)
    val pts = TestData.materializePts(q)
    for (a <- idx.attrs; (l, h) <- Seq((-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (-1.0, -0.0), (-0.0, 1.0))) {
      val (lo, hi) = idx.fullBox
      lo(idx.attrIdx(a)) = l; hi(idx.attrIdx(a)) = h
      val want = pts.count(t => t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i)))
      assert(want > 0 && idx.countBox(lo, hi) == want.toDouble, s"$a in [$l, $h]")
    }
  }

  test("countBox and sampleBox reject a bound of the wrong length or a NaN") {
    val (lo, hi) = index.fullBox
    val nanLo = lo.clone(); nanLo(1) = Double.NaN
    val nanHi = hi.clone(); nanHi(0) = Double.NaN
    val bad = Seq((lo.init, hi), (lo, hi :+ 0.0), (nanLo, hi), (lo, nanHi))
    for ((l, h) <- bad) {
      intercept[IllegalArgumentException](index.countBox(l, h))
      intercept[IllegalArgumentException](index.sampleBox(l, h, 1, new Random(1)))
    }
  }

  test("a Long join key beyond 2^53 is rejected before the cast, naming the relation and the column") {
    val big = 1L << 53
    val r2 = Seq((big, 7.0)).toDF("b", "a2")
    val atLimit = GYO.joinTree(Seq(Relation("z1", Seq((1.0, big), (2.0, -big)).toDF("a1", "b")),
      Relation("z2", r2))).get
    assert(LocalJoinIndex.build(atLimit).n == Yannakakis.countJoin(atLimit).toDouble)
    // 2^53 + 1 reads as 2^53 once cast, so the index would count 2 where Spark counts 1
    for (key <- Seq(big + 1, -big - 1)) {
      val r1 = Seq((1.0, big), (2.0, key)).toDF("a1", "b")
      val q = GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
      assert(Yannakakis.countJoin(q) == 1L)
      val e = intercept[IllegalArgumentException](LocalJoinIndex.build(q))
      assert(e.getMessage.contains("z1") && e.getMessage.contains("column b"), e.getMessage)
    }
  }

  /** Two relations z1(a1, b) and z2(b, a2) whose key b is a decimal column
    * of type `t`, read from the given key strings.
    */
  private def decimalQuery(t: DecimalType, z1: Seq[(Double, String)], z2: Seq[(String, Double)]): AcyclicQuery = {
    val r1 = z1.toDF("a1", "b").select($"a1", $"b".cast(t) as "b")
    val r2 = z2.toDF("b", "a2").select($"b".cast(t) as "b", $"a2")
    GYO.joinTree(Seq(Relation("z1", r1), Relation("z2", r2))).get
  }

  test("a decimal join key that merges with another once cast to double is rejected, naming the relation and the column") {
    // DECIMAL(20,0) 2^53 + 1 reads as 2^53 once cast, so the index would count 2 where Spark counts 1
    val q = decimalQuery(DecimalType(20, 0),
      Seq((1.0, "9007199254740992"), (2.0, "9007199254740993")), Seq(("9007199254740992", 7.0)))
    assert(Yannakakis.countJoin(q) == 1L)
    val e = intercept[IllegalArgumentException](LocalJoinIndex.build(q))
    assert(e.getMessage.contains("z1") && e.getMessage.contains("column b"), e.getMessage)
  }

  test("DECIMAL(10,2) join keys are accepted, and n equals countJoin") {
    val q = decimalQuery(DecimalType(10, 2),
      Seq((1.0, "0.10"), (2.0, "0.10"), (3.0, "1.15"), (4.0, "-2.35"), (5.0, "7.77")),
      Seq(("0.10", 7.0), ("1.15", 8.0), ("1.15", 9.0), ("-2.35", 1.0), ("3.33", 2.0)))
    assert(Yannakakis.countJoin(q) == 5L)
    assert(LocalJoinIndex.build(q).n == 5.0)
  }

  test("works on the TPC-H FK join") {
    val tpch = TestData.tpchQuery(spark)
    val idx = LocalJoinIndex.build(tpch)
    assert(idx.n == Yannakakis.countJoin(tpch).toDouble)
    val s = idx.sampleUniform(50, new Random(7))
    assert(s.length == 50)
    assert(s.forall(_.length == idx.dim))
  }
}
