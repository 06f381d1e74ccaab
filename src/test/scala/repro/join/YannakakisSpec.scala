package repro.join

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

class YannakakisSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private lazy val tpch = TestData.tpchQuery(spark)
  private def pathTables = path.relations.map(r => r.name -> r.df)

  test("countJoin matches DuckDB on the path join") {
    val cnt = Yannakakis.countJoin(path)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      s"SELECT COUNT(*) AS cnt ${TestData.pathJoinSql}",
      pathTables: _*)
  }

  test("countJoin matches DuckDB on the TPC-H-lite FK join") {
    val cnt = Yannakakis.countJoin(tpch)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM lineitem, orders, customer " +
        "WHERE lineitem.okey = orders.okey AND orders.ckey = customer.ckey",
      tpch.relations.map(r => r.name -> r.df): _*)
  }

  test("countJoin is invariant under re-rooting") {
    val counts = Seq("r1", "r2", "r3").map(r =>
      Yannakakis.countsByCarry(path.rooted(r)).head().getLong(0))
    assert(counts.distinct.size == 1, counts.toString)
  }

  test("countsByCarry matches DuckDB per-tuple participation counts") {
    // carrying r2's own columns groups the join results by r2 tuple
    val annotated = path.withDfs(Map("r2" -> path.relation("r2").df
      .withColumn("cc_b", $"b").withColumn("cc_c", $"c")))
    val got = Yannakakis.countsByCarry(annotated.rooted("r1"))
      .select($"cc_b".as("b"), $"cc_c".as("c"), col(Yannakakis.Cnt).as("cnt"))
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(r2.b AS DOUBLE) AS b, CAST(r2.c AS DOUBLE) AS c, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY r2.b, r2.c",
      pathTables: _*)
  }

  test("fullReduce removes exactly the dangling tuples") {
    val reduced = Yannakakis.fullReduce(path)
    // r1 tuples surviving = those with b appearing in the (r2 semi r3) side
    val expected =
      "SELECT DISTINCT CAST(r1.a1 AS DOUBLE) AS a1, CAST(r1.b AS DOUBLE) AS b " +
        "FROM r1, r2, r3 WHERE r1.b = r2.b AND r2.c = r3.c"
    Oracle.assertEquivalent(reduced.relation("r1").df.distinct(), expected, pathTables: _*)
  }

  test("fullReduce preserves the join result count") {
    val reduced = Yannakakis.fullReduce(path)
    assert(Yannakakis.countJoin(reduced) == Yannakakis.countJoin(path))
  }

  test("fullReduce leaves no dangling tuple (each tuple joins)") {
    val reduced = Yannakakis.fullReduce(path)
    // carrying a row id keeps one group per tuple that joins; after a full
    // reduce that is every tuple of every relation
    for (r <- reduced.relations) {
      val withId = reduced.withDfs(Map(r.name -> r.df.withColumn("cc_id", monotonically_increasing_id())))
      assert(Yannakakis.countsByCarry(withId.rooted(r.name)).count() == r.df.count(), r.name)
    }
  }

  test("materialize matches DuckDB row-for-row (projected)") {
    val m = Yannakakis.materialize(path)
      .groupBy("a1", "a2", "b", "c").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      m,
      "SELECT CAST(r1.a1 AS DOUBLE) AS a1, CAST(r3.a2 AS DOUBLE) AS a2, " +
        "CAST(r1.b AS DOUBLE) AS b, CAST(r2.c AS DOUBLE) AS c, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY r1.a1, r3.a2, r1.b, r2.c",
      pathTables: _*)
  }

  test("countsByCarry matches DuckDB grouped counts") {
    // carry a derived bucket of a1 and of a2 through the counting pass
    val annotated = path.withDfs(Map(
      "r1" -> path.relation("r1").df.withColumn("cc_b1", floor(col("a1") / 25).cast("int")),
      "r3" -> path.relation("r3").df.withColumn("cc_b2", floor(col("a2") / 25).cast("int"))
    ))
    val got = Yannakakis.countsByCarry(annotated.rooted("r2"))
      .withColumnRenamed(Yannakakis.Cnt, "cnt")
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(FLOOR(CAST(r1.a1 AS DOUBLE)/25) AS INT) AS cc_b1, " +
        "CAST(FLOOR(CAST(r3.a2 AS DOUBLE)/25) AS INT) AS cc_b2, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY 1, 2",
      pathTables: _*)
  }

  test("countsByCarry with no carry columns returns the total count") {
    val df = Yannakakis.countsByCarry(path.rooted("r1"))
    assert(df.columns.toSeq == Seq(Yannakakis.Cnt))
    assert(df.head.getLong(0) == Yannakakis.countJoin(path))
  }

  test("counting never materializes more rows than the inputs (plan sanity)") {
    // the counting pass must be joins of *aggregated* children: grouped by a
    // root row id, its result has at most |root| rows
    val r1 = path.relation("r1").df
    val withId = path.withDfs(Map("r1" -> r1.withColumn("cc_id", monotonically_increasing_id())))
    assert(Yannakakis.countsByCarry(withId.rooted("r1")).count() <= r1.count())
  }

  test("empty relation yields empty join and zero count") {
    val empty = path.withDfs(Map("r2" -> path.relation("r2").df.where(lit(false))))
    assert(Yannakakis.countJoin(empty) == 0L)
    val reduced = Yannakakis.fullReduce(empty)
    assert(reduced.relation("r1").df.isEmpty)
    assert(reduced.relation("r3").df.isEmpty)
  }
}
