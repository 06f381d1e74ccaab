package repro

import org.apache.spark.sql.functions._
import repro.cluster._
import repro.core._
import repro.join._
import scala.util.Random

/** Parameter-sensitivity and workload-variation coverage: eps, sample size,
  * grid resolution, heavy-cell threshold, skewed keys, discrete+slow
  * combinations, and extra query shapes.
  */
class VariationsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val q = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(q)
  private lazy val truth = TestData.materializePts(q)
  private lazy val dims = Array("a1", "a2").map(index.attrIdx)
  private lazy val proj = truth.map(t => dims.map(t(_)))

  private def makeX(seed: Long): (Array[Array[Double]], Double) = {
    val rng = new Random(seed)
    val sub = Array.fill(1500)(proj(rng.nextInt(proj.length)))
    val x = KMedianAlg().cluster(sub, Array.fill(sub.length)(1.0), 9, rng)
    (x, TestData.costUnweighted(proj, x, Median) * 1.02)
  }

  private def batched(conf: CoreConf, seed: Long): ClusterOut = {
    val (x, r) = makeX(seed)
    val rng = new Random(seed)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, 3,
      KMedianAlg(), conf, rng)
  }

  private def coresetErr(out: ClusterOut, seed: Long): Double = {
    val rng = new Random(seed)
    (1 to 8).map { _ =>
      val y = Array.fill(3)(Array(rng.nextDouble() * 100, rng.nextDouble() * 100))
      math.abs(Weighted.cost(out.corePts, out.coreW, y, Median) -
        TestData.costUnweighted(proj, y, Median)) / TestData.costUnweighted(proj, y, Median)
    }.max
  }

  test("finer grids give (weakly) better coresets") {
    val coarse = batched(CoreConf(cellsPerSide = 4, sampleSize = 4000, seed = 1), 1)
    val fine = batched(CoreConf(cellsPerSide = 16, sampleSize = 4000, seed = 1), 1)
    assert(fine.coresetSize >= coarse.coresetSize)
    assert(coresetErr(fine, 2) <= coresetErr(coarse, 2) + 0.05,
      s"fine=${coresetErr(fine, 2)} coarse=${coresetErr(coarse, 2)}")
  }

  test("larger samples give (weakly) better batched coresets") {
    val small = batched(CoreConf(cellsPerSide = 8, sampleSize = 500, seed = 3), 3)
    val big = batched(CoreConf(cellsPerSide = 8, sampleSize = 8000, seed = 3), 3)
    assert(coresetErr(big, 4) <= coresetErr(small, 4) + 0.05)
  }

  test("coreset weight-sum invariant holds at every configuration") {
    for (cps <- Seq(4, 8, 16); m <- Seq(500, 4000)) {
      val out = batched(CoreConf(cellsPerSide = cps, sampleSize = m, seed = 5), 5)
      assert(math.abs(out.coreW.sum - index.n) < 1e-6 * index.n, s"cps=$cps m=$m")
    }
  }

  test("faithful Alg2 heavy-threshold extremes stay sane") {
    val (x, r) = makeX(7)
    // threshold ~0: every sampled cell heavy; high threshold: only dense cells
    val loose = RelClusteringFast.run(index, dims, x, 2.0, r, 3, KMedianAlg(),
      CoreConf(cellsPerSide = 8, perCellSamples = 32, heavyFraction = 1e-9, seed = 7),
      new Random(7))
    val strict = RelClusteringFast.run(index, dims, x, 2.0, r, 3, KMedianAlg(),
      CoreConf(cellsPerSide = 8, perCellSamples = 32, heavyFraction = 0.5, seed = 7),
      new Random(7))
    assert(loose.coresetSize >= strict.coresetSize)
    assert(loose.coreW.sum >= strict.coreW.sum * 0.9)
    assert(strict.coresetSize > 0)
  }

  test("slow + discrete k-means end-to-end on a 2-attr projection") {
    val res = RelKClustering.run(q, 3, KMeansAlg(discrete = true),
      CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 3000, seed = 8),
      SlowDeterministic, attrsOverride = Some(Seq("a1", "a2")))
    val projSet = proj.map(_.toSeq).toSet
    res.centers.foreach(c => assert(projSet.contains(c.toSeq)))
    val mine = TestData.costUnweighted(proj, res.centers, Means)
    val base = TestData.costUnweighted(proj,
      KMeansAlg().cluster(proj, Array.fill(proj.length)(1.0), 3, new Random(9)), Means)
    assert(mine <= 4.6 * base, s"mine=$mine base=$base")
  }

  test("faithful Alg2 + k-means objective") {
    val rng = new Random(10)
    val sub = Array.fill(1500)(proj(rng.nextInt(proj.length)))
    val x = KMeansAlg().cluster(sub, Array.fill(sub.length)(1.0), 9, rng)
    val r = TestData.costUnweighted(proj, x, Means) * 1.02
    val out = RelClusteringFast.run(index, dims, x, 2.0, r, 3, KMeansAlg(),
      CoreConf(cellsPerSide = 8, perCellSamples = 32, heavyFraction = 0.02, seed = 10), rng)
    val mine = TestData.costUnweighted(proj, out.centers, Means)
    val base = TestData.costUnweighted(proj,
      KMeansAlg().cluster(proj, Array.fill(proj.length)(1.0), 3, new Random(11)), Means)
    assert(mine <= 2.0 * base, s"mine=$mine base=$base")
  }

  test("zipf-skewed join keys: counts, sampling and clustering survive skew") {
    val z1 = SynthData.zipfKeys(spark, 2000, 50, alpha = 1.3, seed = 21)
      .select($"k".cast("double") as "b", $"v" * 100 as "a1").cache()
    val z2 = SynthData.zipfKeys(spark, 2000, 50, alpha = 1.3, seed = 22)
      .select($"k".cast("double") as "b", $"v" * 100 as "a2").cache()
    val zq = GYO.joinTree(Seq(Relation("z1", z1), Relation("z2", z2))).get
    Oracle.assertEquivalent(
      Seq(Yannakakis.countJoin(zq)).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM z1, z2 WHERE z1.b = z2.b",
      "z1" -> z1, "z2" -> z2)
    val zTruth = TestData.materializePts(zq)
    val idx = LocalJoinIndex.build(zq)
    assert(idx.n == zTruth.length.toDouble)
    // heavy key dominates: the sample must reflect that
    val s = idx.sampleUniform(3000, new Random(23))
    val bi = idx.attrIdx("b")
    val heavyShare = zTruth.count(_(bi) == 1.0).toDouble / zTruth.length
    val sampleShare = s.count(_(bi) == 1.0).toDouble / s.length
    assert(math.abs(heavyShare - sampleShare) < 0.05, s"$heavyShare vs $sampleShare")
    val res = RelKClustering.run(zq, 3, KMeansAlg(),
      CoreConf(sampleSize = 3000, seed = 24), FastBatched)
    val mine = TestData.costUnweighted(zTruth, res.centers, Means)
    val base = TestData.costUnweighted(zTruth,
      KMeansAlg().cluster(zTruth, Array.fill(zTruth.length)(1.0), 3, new Random(25)), Means)
    assert(mine <= 1.8 * base, s"mine=$mine base=$base")
  }

  test("5-relation star query through the whole pipeline") {
    def dim(n: String, key: String, v: String, seed: Int) =
      Relation(n, spark.range(200).select(
        (rand(seed) * 20).cast("long").cast("double") as key,
        rand(seed + 1) * 100 as v).cache())
    val fact = Relation("fact", spark.range(1000).select(
      (rand(31) * 20).cast("long").cast("double") as "k1",
      (rand(32) * 20).cast("long").cast("double") as "k2",
      (rand(33) * 20).cast("long").cast("double") as "k3",
      (rand(34) * 20).cast("long").cast("double") as "k4").cache())
    val sq = GYO.joinTree(Seq(fact,
      dim("d1", "k1", "v1", 41), dim("d2", "k2", "v2", 43),
      dim("d3", "k3", "v3", 45), dim("d4", "k4", "v4", 47))).get
    val n = Yannakakis.countJoin(sq)
    assert(n > 0)
    val idx = LocalJoinIndex.build(sq)
    assert(idx.n == n.toDouble)
    assert(idx.dim == 8) // 4 keys + 4 values
    val res = RelKClustering.run(sq, 2, KMedianAlg(),
      CoreConf(sampleSize = 2000, seed = 26), FastBatched)
    assert(res.centers.length == 2)
    assert(res.rU > 0 && java.lang.Double.isFinite(res.rU))
  }

  test("a relation whose attributes subsume another's is handled by GYO") {
    val big = Relation("big", Seq((1.0, 2.0, 3.0)).toDF("a", "b", "c"))
    val small = Relation("small", Seq((1.0, 2.0)).toDF("a", "b"))
    val sq = GYO.joinTree(Seq(big, small))
    assert(sq.isDefined)
    assert(Yannakakis.countJoin(sq.get) == 1L)
  }

  test("eps feeds through to r_u inflation factors") {
    val tight = batched(CoreConf(epsilon = 0.1, sampleSize = 4000, seed = 27), 27)
    val loose = batched(CoreConf(epsilon = 0.9, sampleSize = 4000, seed = 27), 27)
    // same coreset-ish cost, bigger certificate factor at larger eps
    assert(loose.rU / Weighted.cost(loose.corePts, loose.coreW, loose.centers, Median) >
      tight.rU / Weighted.cost(tight.corePts, tight.coreW, tight.centers, Median))
  }

  test("k-median vs k-means centers differ under asymmetric outliers") {
    // one far outlier group: means gets pulled, median resists
    val pts = (Array.fill(200)(Array(0.0 + new Random(28).nextGaussian() * 0.1)) ++
      Array.fill(2)(Array(1000.0)))
    val w = Array.fill(pts.length)(1.0)
    val med = KMedianAlg().cluster(pts, w, 1, new Random(29))(0)(0)
    val mea = KMeansAlg().cluster(pts, w, 1, new Random(29))(0)(0)
    assert(med < 5.0, s"median center $med should resist outliers")
    assert(mea > 5.0, s"means center $mea should be pulled by outliers")
  }
}
