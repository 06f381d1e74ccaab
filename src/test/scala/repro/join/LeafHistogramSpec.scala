package repro.join

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

class LeafHistogramSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private def tables = path.relations.map(r => r.name -> r.df)

  test("histogram of a1 matches DuckDB group-by over the join") {
    val h = LeafHistogram.histogram(path, "a1")
    Oracle.assertEquivalent(
      h.toSeq.toDF("v", "w").withColumn("w", col("w").cast("long")),
      s"SELECT CAST(r1.a1 AS DOUBLE) AS v, COUNT(*) AS w ${TestData.pathJoinSql} GROUP BY 1",
      tables: _*)
  }

  test("histogram of a join attribute (b) matches DuckDB") {
    val h = LeafHistogram.histogram(path, "b")
    Oracle.assertEquivalent(
      h.toSeq.toDF("v", "w").withColumn("w", col("w").cast("long")),
      s"SELECT CAST(r1.b AS DOUBLE) AS v, COUNT(*) AS w ${TestData.pathJoinSql} GROUP BY 1",
      tables: _*)
  }

  test("histogram weights always sum to |q(D)| for every attribute") {
    val n = Yannakakis.countJoin(path).toDouble
    for (a <- path.allAttrs) {
      val h = LeafHistogram.histogram(path, a)
      assert(math.abs(h.map(_._2).sum - n) < 1e-6, s"attr $a")
      assert(h.map(_._1).distinct.length == h.length, s"attr $a has duplicate values")
    }
  }

  test("every attribute's histogram matches DuckDB on the path join, rooted at an end or the middle") {
    // the index roots at the first relation: at r2, r1 and r3 are siblings
    for (root <- Seq("r1", "r2"))
      TestData.assertHistogramsMatchDuckDB(spark, path.copy(relations = path.relations.sortBy(_.name != root)))
  }

  test("every attribute's histogram matches DuckDB on the TPC-H-lite FK join") {
    TestData.assertHistogramsMatchDuckDB(spark, TestData.tpchQuery(spark))
  }

  test("an unreduced index leaves out the values of dangling tuples") {
    // most r2 tuples dangle once r3 keeps only c <= 20
    val q = TestData.danglingPathQuery(spark)
    TestData.assertHistogramsMatchDuckDB(spark, q)
    val cs = LocalJoinIndex.build(q).histogram("c").map(_._1)
    assert(cs.nonEmpty && cs.forall(_ <= 20))
    assert(q.relation("r2").df.where(col("c") > 20).count() > 0)
  }

  test("histogram values all appear in the materialized join") {
    val truth = TestData.materializePts(path)
    val i = path.allAttrs.indexOf("a2")
    val vals = truth.map(_(i)).toSet
    val h = LeafHistogram.histogram(path, "a2")
    h.foreach { case (v, w) => assert(vals.contains(v)); assert(w >= 1.0) }
  }
}
