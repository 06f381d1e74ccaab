package repro.baselines

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.{Oracle, SparkSpec, TestData}
import repro.cluster._
import repro.join.{AcyclicQuery, GYO, LocalJoinIndex, Relation, Yannakakis}
import scala.util.Random

class FullJoinSpec extends SparkSpec {
  private lazy val q = TestData.pathQuery(spark)
  private lazy val truth = TestData.materializePts(q)

  test("materialized join size matches the relational count") {
    val res = FullJoin.run(q, 3, KMeansAlg(), seed = 1)
    assert(res.joinSize == Yannakakis.countJoin(q))
    assert(res.clusteredRows == truth.length) // below the collect cap
    assert(res.centers.length == 3)
  }

  test("CostEval (Spark aggregation) equals the driver-side cost — median") {
    val rng = new Random(2)
    val centers = Array.fill(3)(Array.fill(q.allAttrs.size)(rng.nextDouble() * 100))
    val viaSpark = CostEval.cost(q, centers, q.allAttrs, Median)
    val viaDriver = TestData.costUnweighted(truth, centers, Median)
    assert(math.abs(viaSpark - viaDriver) <= 1e-6 * viaDriver, s"$viaSpark vs $viaDriver")
  }

  test("CostEval equals the driver-side cost — means") {
    val rng = new Random(3)
    val centers = Array.fill(2)(Array.fill(q.allAttrs.size)(rng.nextDouble() * 100))
    val viaSpark = CostEval.cost(q, centers, q.allAttrs, Means)
    val viaDriver = TestData.costUnweighted(truth, centers, Means)
    assert(math.abs(viaSpark - viaDriver) <= 1e-6 * viaDriver)
  }

  test("CostEval handles a single center") {
    val centers = Array(Array.fill(q.allAttrs.size)(50.0))
    val viaSpark = CostEval.cost(q, centers, q.allAttrs, Median)
    val viaDriver = TestData.costUnweighted(truth, centers, Median)
    assert(math.abs(viaSpark - viaDriver) <= 1e-6 * viaDriver)
  }

  test("collect cap falls back to sampling but still returns k centers") {
    val res = FullJoin.run(q, 3, KMeansAlg(), seed = 4, collectCap = 1000)
    assert(res.clusteredRows <= 2000) // cap +- sampling noise
    assert(res.centers.length == 3)
  }
}

class RkMeansSpec extends SparkSpec {
  private lazy val q = TestData.pathQuery(spark)
  private lazy val truth = TestData.materializePts(q)
  private val k = 3

  test("grid-cell weights sum exactly to |q(D)| (counted relationally)") {
    val res = RkMeans.run(q, k, KMeansAlg(), seed = 1)
    assert(math.abs(res.totalWeight - truth.length) < 1e-6)
  }

  test("grid has at most k^d nonempty cells") {
    val res = RkMeans.run(q, k, KMeansAlg(), seed = 2)
    assert(res.gridSize <= math.pow(k, q.allAttrs.size).toInt)
    assert(res.gridSize >= k)
  }

  test("rk-means cost is within its (large) constant factor of the baseline") {
    val res = RkMeans.run(q, k, KMeansAlg(), seed = 3)
    val base = FullJoin.run(q, k, KMeansAlg(), seed = 3)
    val mine = TestData.costUnweighted(truth, res.centers, Means)
    val ref = TestData.costUnweighted(truth, base.centers, Means)
    // Table 1: gamma^2 + 4 gamma sqrt(gamma) + 4 gamma = 9 at gamma = 1
    assert(mine <= 9.5 * ref, s"rk-means=$mine baseline=$ref")
    assert(mine >= 0.9 * ref)
  }

  /** `RkMeans.grid` against DuckDB's count per cell, where an attribute's
    * cell id is the number of midpoints strictly below its value.
    */
  private def assertGridMatchesDuckDB(q: AcyclicQuery, centers: Seq[Array[Double]]): Unit = {
    val index = LocalJoinIndex.build(q)
    val attrs = index.attrs.toSeq
    val cells = RkMeans.grid(index, centers).map { case (p, w) =>
      Row.fromSeq(p.indices.map(j => centers(j).indexOf(p(j))) :+ w.toLong)
    }
    val schema = StructType(attrs.map(StructField(_, IntegerType)) :+ StructField("w", LongType))
    val cellId = attrs.zip(centers).map { case (a, cs) =>
      val rel = q.relations.find(_.attrSet.contains(a)).get.name
      val mids = cs.sliding(2).filter(_.length == 2).map(p => (p(0) + p(1)) / 2)
      val terms = mids.map(m => s"CASE WHEN CAST($rel.$a AS DOUBLE) > CAST('$m' AS DOUBLE) THEN 1 ELSE 0 END")
      s"${(Seq("0") ++ terms).mkString(" + ")} AS $a"
    }
    Oracle.assertEquivalent(
      spark.createDataFrame(spark.sparkContext.parallelize(cells.toSeq), schema),
      s"SELECT ${cellId.mkString(", ")}, COUNT(*) AS w ${TestData.joinSql(q)} GROUP BY ALL",
      q.relations.map(r => r.name -> r.df): _*)
  }

  test("grid cell counts match DuckDB's group-by of each attribute's cell id") {
    val index = LocalJoinIndex.build(q)
    val centers = index.attrs.toSeq.map { a =>
      val h = index.histogram(a)
      KMeansAlg().cluster(h.map(x => Array(x._1)), h.map(_._2), k, new Random(5)).map(_(0)).sorted
    }
    assertGridMatchesDuckDB(q, centers)
  }

  test("a value on a midpoint goes to the lower cell") {
    import spark.implicits._
    val r1 = Seq((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)).toDF("a", "b")
    val r2 = Seq((1.0, 5.0), (1.0, 6.0)).toDF("b", "c")
    val tiny = GYO.joinTree(Seq(Relation("t1", r1), Relation("t2", r2))).get
    // attributes (a, b, c); a's centers 0 and 2 put its midpoint on the value 1
    val centers = Seq(Array(0.0, 2.0), Array(1.0), Array(5.0, 6.0))
    val cells = RkMeans.grid(LocalJoinIndex.build(tiny), centers).map { case (p, w) => (p.toSeq, w) }
    assert(cells.toSeq == Seq(
      (Seq(0.0, 1.0, 5.0), 2.0), (Seq(0.0, 1.0, 6.0), 2.0),
      (Seq(2.0, 1.0, 5.0), 1.0), (Seq(2.0, 1.0, 6.0), 1.0)))
    assertGridMatchesDuckDB(tiny, centers)
  }

  test("k = 1 grid collapses to a single cell") {
    val res = RkMeans.run(q, 1, KMeansAlg(), seed = 4)
    assert(res.gridSize == 1)
    assert(res.centers.length == 1)
  }
}

class RelKMeansPPSpec extends SparkSpec {
  private lazy val q = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(q)
  private lazy val truth = TestData.materializePts(q)
  private val k = 3

  test("coreset has O(k log n) centers") {
    val sample = index.sampleUniform(4000, new Random(1))
    val res = RelKMeansPP.run(sample, index.n, k, KMeansAlg(), seed = 1)
    val bound = k * math.ceil(math.log(index.n) / math.log(2)).toInt
    assert(res.coresetSize <= bound)
    assert(res.coresetSize > k)
  }

  test("rel-k-means++ cost is within its constant factor of the baseline") {
    val sample = index.sampleUniform(4000, new Random(2))
    val res = RelKMeansPP.run(sample, index.n, k, KMeansAlg(), seed = 2)
    val base = FullJoin.run(q, k, KMeansAlg(), seed = 2)
    val mine = TestData.costUnweighted(truth, res.centers, Means)
    val ref = TestData.costUnweighted(truth, base.centers, Means)
    assert(mine <= 6.0 * ref, s"rel-k-means++=$mine baseline=$ref")
  }

  test("uniform coreset clusters sanely") {
    val sample = index.sampleUniform(4000, new Random(3))
    val centers = UniformCoreset.run(sample, index.n, k, KMeansAlg(), seed = 3)
    val base = FullJoin.run(q, k, KMeansAlg(), seed = 3)
    val mine = TestData.costUnweighted(truth, centers, Means)
    val ref = TestData.costUnweighted(truth, base.centers, Means)
    assert(centers.length == k)
    assert(mine <= 4.0 * ref, s"uniform=$mine baseline=$ref")
  }

  test("uniform coreset works for k-median too") {
    val sample = index.sampleUniform(4000, new Random(4))
    val centers = UniformCoreset.run(sample, index.n, k, KMedianAlg(), seed = 4)
    val base = FullJoin.run(q, k, KMedianAlg(), seed = 4)
    val mine = TestData.costUnweighted(truth, centers, Median)
    val ref = TestData.costUnweighted(truth, base.centers, Median)
    assert(mine <= 3.0 * ref)
  }
}
