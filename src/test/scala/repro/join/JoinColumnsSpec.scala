package repro.join

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.{Oracle, SparkSpec, TestData}
import repro.baselines.{CostEval, FullJoin}
import repro.cluster.{KMeansAlg, Means, Weighted}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Every edge joins on every column its two relations share
  * ([[Relation.joinColumns]]), whatever the columns are called: Spark's
  * passes, the full join and the index count the same query.
  */
class JoinColumnsSpec extends SparkSpec {
  import spark.implicits._

  test("R(a, cc_x) ⋈ S(cc_x, b) joins on cc_x: every count is 5") {
    val r = Seq((1.0, 1.0), (2.0, 1.0), (3.0, 2.0)).toDF("a", "cc_x")
    val s = Seq((1.0, 10.0), (1.0, 11.0), (2.0, 12.0), (3.0, 13.0)).toDF("cc_x", "b")
    val q = GYO.joinTree(Seq(Relation("r", r), Relation("s", s))).get
    Oracle.assertEquivalent(Seq(5L).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM r, s WHERE r.cc_x = s.cc_x", "r" -> r, "s" -> s)
    assert(Yannakakis.countJoin(q) == 5L)
    assert(Yannakakis.materialize(q).count() == 5L)
    val full = FullJoin.run(q, 2, KMeansAlg(), seed = 1)
    assert(full.joinSize == 5L)
    assert(LocalJoinIndex.build(q).n == 5.0)
    val cost = CostEval.cost(q, full.centers, q.allAttrs, Means)
    val truth = TestData.materializePts(q)
    assert(math.abs(cost - Weighted.costUnweighted(truth, full.centers, Means)) <= 1e-9 * (1 + cost))
  }
}

/** On random acyclic schemas whose shared columns are sometimes named with
  * a `cc_` prefix, `countJoin`, the materialized join, `FullJoin` and
  * the index give DuckDB's |q(D)|, and `fullReduce` keeps exactly the rows
  * that join.
  */
class JoinColumnsProps extends Properties("JoinColumns") {
  import JoinColumnsProps.Table
  private lazy val spark = SparkSpec.shared

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(20).withWorkers(1).withInitialSeed(20L)

  private val Inherit = "^"

  /** 2–4 relations over a random tree. Each edge shares one or two columns:
    * fresh ones, named with `cc_` or not, or one the parent shares with its
    * own parent (so that three relations hold it). Some relations get a
    * value column. Keys take 0..2, values 0..9, and each relation's columns
    * come in a random order.
    */
  private def randomSchema(seed: Long): Seq[Table] = {
    val rng = new Random(seed)
    val m = 2 + rng.nextInt(3)
    val parent = Array.tabulate(m)(i => if (i == 0) -1 else rng.nextInt(i))
    val up = Array.fill(m)(Seq.empty[String]) // the columns each relation shares with its parent
    for (i <- 1 until m) {
      val kinds = Seq.fill(1 + rng.nextInt(2))(Seq("cc_", "", Inherit)(rng.nextInt(3)))
      up(i) = kinds.zipWithIndex.map {
        case (Inherit, _) if up(parent(i)).nonEmpty => up(parent(i)).head
        case (Inherit, j)                           => s"k${i}_$j"
        case (prefix, j)                            => s"${prefix}k${i}_$j"
      }.distinct
    }
    Seq.tabulate(m) { v =>
      val keys = (up(v) ++ (1 until m).filter(parent(_) == v).flatMap(up(_))).distinct
      val cols = rng.shuffle(keys ++ (if (rng.nextBoolean()) Seq(s"v$v") else Nil))
      val rows = Seq.fill(1 + rng.nextInt(6))(
        cols.map(c => (if (keys.contains(c)) rng.nextInt(3) else rng.nextInt(10)).toDouble))
      Table(s"t$v", cols, rows)
    }
  }

  private def frame(t: Table): DataFrame =
    spark.createDataFrame(t.rows.map(Row.fromSeq).asJava,
      StructType(t.cols.map(StructField(_, DoubleType, nullable = false))))

  property("every count agrees and fullReduce keeps exactly the joining rows") =
    Prop.forAllNoShrink(Gen.long.map(randomSchema)) { tables =>
      import spark.implicits._
      val rels = tables.map(t => Relation(t.name, frame(t)))
      val q = GYO.joinTree(rels).getOrElse(sys.error(s"not acyclic: $tables"))
      val dfs = rels.map(r => r.name -> r.df)
      val n = Yannakakis.countJoin(q)
      Oracle.assertEquivalent(Seq(n).toDF("cnt"), s"SELECT COUNT(*) AS cnt ${TestData.joinSql(q)}", dfs: _*)
      val reduced = Yannakakis.fullReduce(q)
      for (r <- rels) {
        val cols = r.attrs.map(c => s"CAST(o.$c AS DOUBLE) AS $c").mkString(", ")
        Oracle.assertEquivalent(reduced.relation(r.name).df,
          s"SELECT $cols FROM ${r.name} AS o WHERE o.rowid IN " +
            s"(SELECT ${r.name}.rowid ${TestData.joinSql(q)})", dfs: _*)
      }
      Yannakakis.materialize(q).count() == n &&
        LocalJoinIndex.build(q).n == n.toDouble &&
        (n == 0 || FullJoin.run(q, 1, KMeansAlg(), seed = 1).joinSize == n)
    }
}

object JoinColumnsProps {
  /** A relation's columns and rows, before it becomes a DataFrame. */
  private final case class Table(name: String, cols: Seq[String], rows: Seq[Seq[Double]])
}
