package repro.join

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import scala.util.Random

/** A 4-relation chain query — exercises deeper join trees than the 3-path. */
class ChainQuerySpec extends SparkSpec {
  import spark.implicits._

  private lazy val q: AcyclicQuery = TestData.chainQuery(spark)
  private def tables = q.relations.map(r => r.name -> r.df)
  private val sql = "FROM r1, r2, r3, r4 WHERE r1.b = r2.b AND r2.c = r3.c AND r3.d = r4.d"

  test("chain join count matches DuckDB") {
    Oracle.assertEquivalent(
      Seq(Yannakakis.countJoin(q)).toDF("cnt"),
      s"SELECT COUNT(*) AS cnt $sql",
      tables: _*)
  }

  test("chain count is invariant under every rooting") {
    val counts = q.relations.map(r => Yannakakis.countsByCarry(q.rooted(r.name)).head().getLong(0))
    assert(counts.distinct.size == 1, counts.toString)
  }

  test("LocalJoinIndex counts and samples the chain correctly") {
    val idx = LocalJoinIndex.build(Yannakakis.fullReduce(q))
    assert(idx.n == Yannakakis.countJoin(q).toDouble)
    val truth = TestData.materializePts(q).map(_.toSeq).toSet
    val s = idx.sampleUniform(300, new Random(1))
    assert(s.length == 300)
    s.foreach(t => assert(truth.contains(t.toSeq)))
  }

  test("chain histogram of the middle attribute matches DuckDB") {
    val h = LeafHistogram.histogram(q, "c")
    Oracle.assertEquivalent(
      h.toSeq.toDF("v", "w").withColumn("w", col("w").cast("long")),
      s"SELECT CAST(r2.c AS DOUBLE) AS v, COUNT(*) AS w $sql GROUP BY 1",
      tables: _*)
  }

  test("chain histograms of every attribute match DuckDB") {
    // r3 (attribute d) and r4 (attribute a2) sit at depth 2 and 3 of the index
    TestData.assertHistogramsMatchDuckDB(spark, q)
  }

  test("chain box count matches brute force") {
    val idx = LocalJoinIndex.build(Yannakakis.fullReduce(q))
    val truth = TestData.materializePts(q)
    val (lo, hi) = idx.fullBox
    lo(idx.attrIdx("a1")) = 30.0; hi(idx.attrIdx("a1")) = 70.0
    lo(idx.attrIdx("d")) = 0.0; hi(idx.attrIdx("d")) = 50.0
    val brute = truth.count { t =>
      t.indices.forall(i => t(i) >= lo(i) && t(i) <= hi(i))
    }
    assert(idx.countBox(lo, hi) == brute.toDouble)
  }
}
