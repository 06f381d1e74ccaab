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
    // countJoin roots at the first relation
    val rels = path.relations
    val counts = rels.indices.map(i => Yannakakis.countJoin(path.copy(relations = rels.drop(i) ++ rels.take(i))))
    assert(counts.distinct.size == 1, counts.toString)
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
    val tables = reduced.relations.map(r => r.name -> r.df)
    // DuckDB's semi-join of each reduced relation with the join keeps every tuple
    for (r <- reduced.relations)
      Oracle.assertEquivalent(
        Seq(r.df.count()).toDF("cnt"),
        s"SELECT COUNT(*) AS cnt FROM ${r.name} AS o WHERE o.rowid IN " +
          s"(SELECT ${r.name}.rowid ${TestData.pathJoinSql})",
        tables: _*)
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

  test("empty relation yields empty join and zero count") {
    val empty = path.withDfs(Map("r2" -> path.relation("r2").df.where(lit(false))))
    assert(Yannakakis.countJoin(empty) == 0L)
    val reduced = Yannakakis.fullReduce(empty)
    assert(reduced.relation("r1").df.isEmpty)
    assert(reduced.relation("r3").df.isEmpty)
  }
}
