package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.{Oracle, SparkSpec, TestData}

class YannakakisSpec extends SparkSpec {
  import YannakakisSpec.Case
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

  test("fullReduce's contract: the joining rows with their multiplicity, as local doubles in input column order") {
    val cases = Seq(
      Case("duplicate rows survive with their multiplicity",
        Seq("z1" -> Seq((1.0, 5.0), (1.0, 5.0), (2.0, 6.0)).toDF("a1", "b"),
            "z2" -> Seq((5.0, 7.0), (5.0, 7.0), (5.0, 8.0), (9.0, 1.0)).toDF("b", "a2")),
        Map("z1" -> 2, "z2" -> 3)),
      Case("a null join key dangles",
        Seq("z1" -> Seq((1.0, Option(5.0)), (2.0, None), (3.0, Option(5.0))).toDF("a1", "b"),
            "z2" -> Seq((5.0, 7.0)).toDF("b", "a2")),
        Map("z1" -> 2, "z2" -> 1)),
      Case("three relations keep their column order, Long keys come back as doubles",
        Seq("z1" -> Seq((1.0, 5L), (2.0, 6L), (3.0, 4L)).toDF("a1", "b"),
            "z2" -> Seq((7L, 5L), (8L, 6L), (9L, 6L)).toDF("c", "b"),
            "z3" -> Seq((7L, 1.0), (8L, 2.0), (3L, 3.0)).toDF("c", "a2")),
        Map("z1" -> 2, "z2" -> 2, "z3" -> 2)),
      Case("an empty relation empties every relation",
        Seq("z1" -> Seq((1.0, 5.0)).toDF("a1", "b"),
            "z2" -> Seq((5.0, 7.0)).toDF("b", "c"),
            "z3" -> Seq.empty[(Double, Double)].toDF("c", "a2")),
        Map("z1" -> 0, "z2" -> 0, "z3" -> 0)),
      Case("a null value column is rejected",
        Seq("z1" -> Seq((Option.empty[Double], 5.0)).toDF("a1", "b"),
            "z2" -> Seq((5.0, 7.0)).toDF("b", "a2")),
        Map.empty, rejects = Some("z1" -> "a1")),
      Case("a NaN is rejected",
        Seq("z1" -> Seq((1.0, 5.0)).toDF("a1", "b"),
            "z2" -> Seq((5.0, Double.NaN)).toDF("b", "a2")),
        Map.empty, rejects = Some("z2" -> "a2")))
    for (c <- cases) {
      val q = GYO.joinTree(c.rels.map { case (n, df) => Relation(n, df) }).get
      c.rejects match {
        case Some((rel, column)) =>
          val e = intercept[IllegalArgumentException](Yannakakis.fullReduce(q))
          assert(e.getMessage.contains(s"relation $rel") && e.getMessage.contains(s"column $column"),
            s"${c.name}: ${e.getMessage}")
        case None =>
          val reduced = Yannakakis.fullReduce(q)
          val again = Yannakakis.fullReduce(reduced)
          for (r <- q.relations) {
            val out = reduced.relation(r.name).df
            assert(out.columns.toSeq == r.attrs, c.name)
            assert(out.schema.forall(f => f.dataType == DoubleType && !f.nullable), s"${c.name}: ${out.schema}")
            // a local relation: collecting it runs no Spark job
            assert(out.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec], c.name)
            assert(out.count() == c.kept(r.name), s"${c.name}: ${r.name}")
            val cols = r.attrs.map(a => s"CAST(o.$a AS DOUBLE) AS $a").mkString(", ")
            Oracle.assertEquivalent(out, s"SELECT $cols FROM ${r.name} AS o WHERE o.rowid IN " +
              s"(SELECT ${r.name}.rowid ${TestData.joinSql(q)})", c.rels: _*)
            assert(again.relation(r.name).df.collect().toSeq == out.collect().toSeq, s"${c.name}: idempotent")
          }
      }
    }
  }
}

object YannakakisSpec {
  /** A small query, and either the row count `fullReduce` keeps per
    * relation or the relation and column it rejects.
    */
  private final case class Case(name: String, rels: Seq[(String, DataFrame)],
                                kept: Map[String, Int], rejects: Option[(String, String)] = None)
}
