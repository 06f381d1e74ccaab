package repro

import org.apache.spark.sql.functions._
import repro.cluster._
import repro.core._
import repro.join._
import scala.util.Random

/** Cross-cutting edge cases: degenerate data, replacement sampling, grids at
  * several resolutions, FK joins through the whole stack.
  */
class EdgeCasesSpec extends SparkSpec {
  import spark.implicits._

  test("sampleBox with z far above the box population still returns z samples") {
    val idx = LocalJoinIndex.build(TestData.pathQuery(spark))
    val (lo, hi) = idx.fullBox
    // squeeze a1 to a sliver around a value drawn from the join: few join results
    val a1 = idx.sampleUniform(1, new Random(0)).head(idx.attrIdx("a1"))
    lo(idx.attrIdx("a1")) = a1 - 0.1; hi(idx.attrIdx("a1")) = a1 + 0.1
    val pop = idx.countBox(lo, hi)
    assert(pop > 0 && pop < 5000, s"pop=$pop — adjust the sliver")
    val z = (pop * 4).toInt.max(1000)
    val s = idx.sampleBox(lo, hi, z, new Random(1))
    assert(s.length == z) // with replacement
    assert(s.map(_.toSeq).distinct.size <= pop)
  }

  test("a join where one relation has a single tuple") {
    val r1 = Seq((1.0, 50.0)).toDF("a1", "b")
    val r2 = SynthData.pathR2(spark, 200, 2, 20, seed = 5)
      .withColumn("b", lit(50.0)).cache()
    val q = GYO.joinTree(Seq(Relation("x1", r1), Relation("x2", r2))).get
    assert(Yannakakis.countJoin(q) == 200L)
    val idx = LocalJoinIndex.build(q)
    assert(idx.n == 200.0)
    val s = idx.sampleUniform(10, new Random(2))
    s.foreach(t => assert(t(idx.attrIdx("a1")) == 1.0))
  }

  test("grid cell containment holds at several resolutions") {
    val rng = new Random(3)
    for (cps <- Seq(4, 8, 12); _ <- 1 to 50) {
      val g = new ExpGrid(Array(rng.nextDouble(), rng.nextDouble()), 0.3, cps, 20)
      val p = Array(rng.nextDouble() * 40 - 20, rng.nextDouble() * 40 - 20)
      assert(g.boxOf(g.cellOf(0, p)).contains(p), s"cps=$cps p=${p.toSeq}")
    }
  }

  test("Rel-K-Median on a point mass: zero cost, r_u ~ 0") {
    // every relation constant => the join is a single repeated point
    val r1 = Seq.fill(50)((5.0, 1.0)).toDF("a1", "b").cache()
    val r2 = Seq.fill(50)((1.0, 9.0)).toDF("b", "a2").cache()
    val q = GYO.joinTree(Seq(Relation("p1", r1), Relation("p2", r2))).get
    val res = RelKClustering.run(q, 2, KMedianAlg(),
      CoreConf(sampleSize = 500, seed = 4), FastBatched)
    assert(res.nJoin == 2500.0)
    assert(res.rU < 1e-6)
    // attrs order is sorted: (a1, a2, b) => the point mass is (5, 9, 1)
    assert(res.attrs == Seq("a1", "a2", "b"))
    val mass = Array(5.0, 9.0, 1.0)
    assert(res.centers.map(Weighted.dist(_, mass)).min < 1e-6)
  }

  test("TPC-H FK join: rk-means grid weights sum to |lineitem|") {
    val tpch = TestData.tpchQuery(spark)
    val res = repro.baselines.RkMeans.run(tpch, 2, KMeansAlg(), seed = 6)
    assert(math.abs(res.totalWeight - Yannakakis.countJoin(tpch)) < 1e-6)
  }

  test("TPC-H FK join: leaf histogram of the fact-side weight column") {
    val tpch = TestData.tpchQuery(spark)
    val h = LeafHistogram.histogram(tpch, "bal") // customer attribute
    val n = Yannakakis.countJoin(tpch)
    assert(math.abs(h.map(_._2).sum - n) < 1e-6)
    // customer-side values repeat across many lineitems: some weight >> 1
    assert(h.map(_._2).max > 1.0)
  }

  test("batched Alg2 with a sample of size 1 still produces a valid coreset") {
    val idx = LocalJoinIndex.build(TestData.pathQuery(spark))
    val rng = new Random(7)
    val sample = idx.sampleUniform(1, rng)
    val dims = Array("a1", "a2").map(idx.attrIdx)
    val x = Array(Array(30.0, 30.0), Array(70.0, 70.0))
    val out = RelClusteringFast.runBatched(sample, idx.n, dims, x, 2.0,
      idx.n * 50, 2, KMedianAlg(), CoreConf(seed = 8), rng)
    assert(out.coresetSize == 1)
    assert(math.abs(out.coreW.sum - idx.n) < 1e-6)
  }

  test("negative coordinates flow through grids and counting") {
    val r1 = spark.range(300).select(
      (rand(1) * 100 - 50) as "a1", (rand(2) * 5).cast("long").cast("double") as "b").cache()
    val r2 = spark.range(300).select(
      (rand(3) * 5).cast("long").cast("double") as "b", (rand(4) * 100 - 50) as "a2").cache()
    val q = GYO.joinTree(Seq(Relation("n1", r1), Relation("n2", r2))).get
    val res = RelKClustering.run(q, 3, KMeansAlg(),
      CoreConf(sampleSize = 2000, seed = 9), FastBatched)
    val truth = TestData.materializePts(q)
    val mine = Weighted.costUnweighted(truth, res.centers, Means)
    val base = Weighted.costUnweighted(truth,
      KMeansAlg().cluster(truth, Array.fill(truth.length)(1.0), 3, new Random(10)), Means)
    assert(mine <= 1.6 * base, s"mine=$mine base=$base")
  }

  test("k larger than the number of distinct join tuples") {
    val r1 = Seq((1.0, 1.0), (2.0, 1.0)).toDF("a1", "b").cache()
    val r2 = Seq((1.0, 3.0)).toDF("b", "a2").cache()
    val q = GYO.joinTree(Seq(Relation("s1", r1), Relation("s2", r2))).get
    val res = RelKClustering.run(q, 5, KMedianAlg(),
      CoreConf(sampleSize = 100, seed = 11), FastBatched)
    assert(res.rU < 1e-6) // enough centers to cover both points exactly
  }

  test("Harness.time measures and passes through the value") {
    val (v, t) = repro.bench.Harness.time { Thread.sleep(30); 42 }
    assert(v == 42)
    assert(t >= 0.025 && t < 5.0)
  }
}
