package perfbench

import org.apache.spark.sql.SparkSession
import perfbench.Workload.{Gamma, K}
import repro.baselines.CostEval
import repro.cluster.Weighted.Pt
import repro.cluster.Means
import repro.core.{FastBatched, SlowDeterministic}
import repro.join.{AcyclicQuery, Yannakakis}
import scala.collection.mutable
import scala.util.Random

/** The benchmark: one process, one Spark session with a pinned environment,
  * one call at a time (a closed loop with a single client).
  *
  * Untraced (`--trace 0`): set up several times and report the median, warm
  * every method up once, then run rounds of the Table 1 methods while they
  * fit in `--seconds` (at least one), checking and scoring every call, and
  * report per-metric medians.
  *
  * Traced (`--trace 1`): after the same set-up and warm-up, call each method
  * once untraced, then replay NEW-fast, NEW-slow and the full join call by
  * call with a span around each call into a layer, then call NEW-fast once
  * more untraced, warm, as the base of the tracing overhead.
  *
  * Prints one JSON record of the run and, last, the result line.
  */
object Main {
  val Master = "local[4]"
  val ShufflePartitions = 4
  val SetupRepeats = 3
  /** Independent input instances per run. Every method runs on the first;
    * NEW-slow, whose time depends most on the data, runs on each of them.
    */
  val Instances = 3
  /** The calls of a round on instance 0, in order. The two cheapest
    * methods are called twice, some seconds apart, so that their medians
    * rest on two samples. On every other instance a round calls NEW-slow.
    */
  val Round0: Seq[Method] = {
    import Method._
    Seq(fullJoin, newFast, rkMeans, relKMeansPP, fullJoin, relKMeansPP, newSlow)
  }
  val BoxCalls = 1000

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        workDir: String, gitSha: String, sourceSha: String)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(Workload(need("workload")), need("seed").toLong, need("seconds").toDouble,
      need("trace") == "1", need("work-dir"), m.getOrElse("git-sha", "unknown"),
      m.getOrElse("source-sha", "unknown"))
  }

  def session(master: String, workDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def secondsOf[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  // ---------------------------------------------------------------- set-up

  /** One seeded input instance, with its exact |q(D)| from `Yannakakis.countJoin`. */
  final case class Instance(id: Int, seed: Long, q: AcyclicQuery, inputRows: Long, nJoin: Long)

  /** The session, then each instance's query and input row count. */
  final case class Setup(spark: SparkSession, inputs: Seq[(AcyclicQuery, Long)], seconds: Seq[Double],
                         checksums: Seq[(String, Long, BigDecimal)])

  /** Seed of instance `i` of a run with seed `seed`. */
  def instanceSeed(seed: Long, i: Int): Long = seed * 1000 + i

  /** The generator's self-check: instance 0 generated under local[1] must
    * match it under the pinned master, row count and checksum. Then
    * `SetupRepeats` timed set-ups under the pinned master: session start,
    * then generating, caching and counting every instance. The last session
    * stays up.
    */
  def setUp(a: Args, phase: String => Unit): Setup = {
    val w = a.workload
    val sums = mutable.ArrayBuffer.empty[(String, Long, BigDecimal)]
    def cycle(master: String, instances: Int, last: Boolean): (SparkSession, Seq[(AcyclicQuery, Long)], Double) = {
      System.gc()
      val t0 = System.nanoTime()
      val spark = session(master, a.workDir)
      val qs = (0 until instances).map(i =>
        Inputs.cachedPathQuery(spark, Workload.Rows, w.nKeys, Workload.NComp, instanceSeed(a.seed, i)))
      val t = (System.nanoTime() - t0) / 1e9
      if (master != Master || last) sums += ((master, qs.head._2, Inputs.checksum(qs.head._1)))
      if (!last) { qs.foreach(x => Inputs.unpersist(x._1)); spark.stop() }
      (spark, qs, t)
    }
    cycle("local[1]", 1, last = false)
    phase("self_check")
    val timed = (1 to SetupRepeats).map(i => cycle(Master, Instances, last = i == SetupRepeats))
    val (spark, qs, _) = timed.last
    Setup(spark, qs, timed.map(_._3), sums.toSeq)
  }

  // ------------------------------------------------------------ method calls

  final case class Call(method: String, seconds: Double, outcome: Option[Outcome], cost: Option[Double],
                        failures: Seq[String])

  /** Time one call and check its output: k finite centres, and every |q(D)|
    * the method reports equal to `Yannakakis.countJoin`.
    */
  def call(m: Method, in: Instance, w: Workload): Call = {
    val t0 = System.nanoTime()
    val res = scala.util.Try(m.run(in.q, w, in.seed))
    val t = (System.nanoTime() - t0) / 1e9
    res match {
      case scala.util.Failure(e) =>
        Call(m.name, t, None, None, Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"))
      case scala.util.Success(o) =>
        val fails = mutable.ArrayBuffer.empty[String]
        if (o.centers.length != K) fails += s"${o.centers.length} centres, expected $K"
        if (!o.centers.forall(_.forall(v => !v.isNaN && !v.isInfinite))) fails += "non-finite centre"
        o.joinCounts.foreach { case (what, c) =>
          if (c != in.nJoin.toDouble) fails += s"$what = $c but Yannakakis.countJoin = ${in.nJoin}"
        }
        Call(m.name, t, Some(o), None, fails.toSeq)
    }
  }

  /** Score a returned call with the exact cost of its centres; check that
    * NEW's r_U is finite and positive and, where it is a certificate, at
    * least the exact cost. When `prev`, a scored call of the same method on
    * the same instance, returned the same centres, its cost is reused.
    */
  def score(c: Call, in: Instance, prev: Option[Call] = None): Call = c.outcome match {
    case None => c
    case Some(o) =>
      val fails = mutable.ArrayBuffer.from(c.failures)
      val known = prev.filter(_.outcome.exists(p => sameCenters(p.centers, o.centers))).flatMap(_.cost)
      val cost = known.orElse(scala.util.Try(CostEval.cost(in.q, o.centers, in.q.allAttrs, Means)).fold(
        e => { fails += s"CostEval threw ${e.getMessage}"; None }, Some(_)))
      for (rU <- o.rU if !(rU > 0 && !rU.isInfinite)) fails += s"r_U = $rU"
      for (x <- cost; rU <- o.rU if o.certified && !(x <= rU)) fails += s"exact cost $x exceeds r_U $rU"
      c.copy(cost = cost, failures = fails.toSeq)
  }

  def costOverRU(c: Call): Option[Double] =
    for (x <- c.cost; rU <- c.outcome.flatMap(_.rU)) yield x / rU

  def sameCenters(x: Array[Pt], y: Array[Pt]): Boolean =
    x.length == y.length && x.indices.forall(i => x(i).sameElements(y(i)))

  /** One untimed, unscored call per method, each on a quarter-size instance
    * (a quarter of the rows and of the keys): the same code paths for a
    * fraction of the work. Four groups of methods warm up concurrently, each on its own instance so that no
    * cached plan is shared, while the exact |q(D)| of every set-up instance
    * is counted, as the reference of the checks. The measured calls that
    * follow run one at a time.
    */
  def warmUp(a: Args, st: Setup): (Seq[Call], Seq[Instance]) = {
    import scala.concurrent.{Await, ExecutionContext, Future}
    import scala.concurrent.duration.Duration
    val w = a.workload
    val groups = Seq(Seq(Method.newSlow), Seq(Method.fullJoin, Method.relKMeansPP),
      Seq(Method.newFast), Seq(Method.rkMeans))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(groups.length + 1)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val instances = Future(st.inputs.zipWithIndex.map { case ((q, n), i) =>
        Instance(i, instanceSeed(a.seed, i), q, n, Yannakakis.countJoin(q))
      })
      val runs = groups.zipWithIndex.map { case (ms, g) =>
        Future {
          val seed = instanceSeed(a.seed, 900 + g)
          val (q, _) = Inputs.cachedPathQuery(st.spark, Workload.Rows / 4, w.nKeys / 4, Workload.NComp, seed)
          try ms.map(call(_, Instance(-1, seed, q, 0, Yannakakis.countJoin(q)), w))
          finally Inputs.unpersist(q)
        }
      }
      (Await.result(Future.sequence(runs), Duration.Inf).flatten, Await.result(instances, Duration.Inf))
    } finally pool.shutdown()
  }

  // ------------------------------------------------------------------- runs

  type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  def untraced(a: Args, st: Setup, instances: Seq[Instance],
               record: mutable.LinkedHashMap[String, Any]): (Metrics, Seq[Call]) = {
    val w = a.workload
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    val first = mutable.Map.empty[(String, Int), Call]
    def measured(m: Method, in: Instance): Call = {
      val c = score(call(m, in, w), in, first.get((m.name, in.id)))
      first.getOrElseUpdate((m.name, in.id), c)
      c
    }
    // one round, then more while they should end within the window
    def round(): Seq[Seq[Call]] = instances.map(in =>
      (if (in.id == 0) Round0 else Seq(Method.newSlow)).map(measured(_, in)))
    val iters = mutable.ArrayBuffer.empty[Seq[Call]]
    var rounds = 0
    while (rounds == 0 || elapsed * (rounds + 1) / rounds <= a.seconds) {
      iters ++= round()
      rounds += 1
    }
    val m: Metrics = mutable.LinkedHashMap("setup_s" -> (median(st.seconds), "s"))
    val calls = iters.flatten.toSeq
    Method.all.foreach { meth =>
      // mean time per call over every call that returned, also when a check
      // on its output failed: for NEW-slow, a batch of one call per instance
      val mine = iters.flatMap(_.filter(_.method == meth.name)).filter(_.outcome.nonEmpty).map(_.seconds)
      if (mine.nonEmpty) m(s"${meth.name}_s") = (mine.sum / mine.length, "s")
      if (meth != Method.fullJoin) {
        val ratios = iters.flatMap { it =>
          for (base <- it.find(_.method == Method.fullJoin.name).flatMap(_.cost);
               c <- it.find(_.method == meth.name).flatMap(_.cost)) yield c / base
        }
        if (ratios.nonEmpty) m(s"${meth.name}_cost_ratio") = (median(ratios.toSeq), "ratio")
      }
    }
    record("rounds") = rounds
    record("measured_s") = (System.nanoTime() - t0) / 1e9
    record("calls") = iters.zipWithIndex.flatMap { case (it, i) =>
      it.map(c => Map("instance" -> i % Instances, "method" -> c.method, "seconds" -> c.seconds,
        "cost" -> c.cost.getOrElse(Double.NaN), "cost_over_r_u" -> costOverRU(c), "failures" -> c.failures))
    }.toSeq
    (m, calls)
  }

  def traced(a: Args, st: Setup, instances: Seq[Instance],
             record: mutable.LinkedHashMap[String, Any]): (Metrics, Seq[Call]) = {
    val w = a.workload
    val in = instances.head
    val q = in.q
    val sc = st.spark.sparkContext
    val counter = new JobCounter(sc)
    val tr = new Tracer(sc, counter)

    // each method once, untraced, under its own job group; scored after
    // the group is cleared, so that spark_jobs.* counts the method's jobs only
    val calls = Method.all.map { m =>
      sc.setJobGroup(s"method:${m.name}", m.name)
      val c = try call(m, in, w) finally sc.clearJobGroup()
      score(c, in)
    }
    def untracedCall(name: String) = calls.find(_.method == name).get

    val (fast, fastTotal) = tr.under("new_fast")(
      Replay.relK(q, w.conf(in.seed), FastBatched, tr))
    val (slow, _) = tr.under("new_slow")(
      Replay.relK(q, w.slowConf(in.seed), SlowDeterministic, tr))
    tr.under("full_join")(Replay.fullJoin(q, in.seed, w.collectCap, tr))
    tr.under("cost_eval")(tr.span("baselines.cost_eval")(
      CostEval.cost(q, fast.centers, q.allAttrs, Means)))
    val (countUs, sampleUs) = Replay.boxCalls(fast.index, BoxCalls, in.seed)
    // the gamma-algorithm alone, on each coreset the batched Algorithm 2 built
    val coreGamma = fast.inner.map { o =>
      secondsOf(Gamma.cluster(o.corePts, o.coreW, K, new Random(in.seed)))._2
    }.sum
    counter.drain()
    // a warm untraced NEW-fast call, the base of trace.overhead
    val warmFast = score(call(Method.newFast, in, w), in, Some(untracedCall("new_fast")))

    def same(x: Option[Array[Pt]], y: Array[Pt]) = x.exists(sameCenters(_, y))
    val matchFast = same(untracedCall("new_fast").outcome.map(_.centers), fast.centers)
    val matchSlow = same(untracedCall("new_slow").outcome.map(_.centers), slow.centers)
    val failures = mutable.ArrayBuffer.empty[String]
    if (!matchFast) failures += "traced NEW-fast replay returned other centres than RelKClustering.run"
    if (!matchSlow) failures += "traced NEW-slow replay returned other centres than RelKClustering.run"
    // Algorithm 1 counts every cell exactly, on any grid: each inner node's
    // coreset weights sum to |q(D)|
    slow.inner.zipWithIndex.foreach { case (o, i) =>
      if (o.coreW.sum != in.nJoin.toDouble)
        failures += s"NEW-slow inner node $i: coreset weights sum to ${o.coreW.sum}, |q(D)| = ${in.nJoin}"
    }

    val m: Metrics = mutable.LinkedHashMap(
      "join.reduce_s" -> (tr.seconds("new_fast", "join.reduce"), "s"),
      "join.reduce_jobs" -> (tr.jobs("new_fast", "join.reduce").toDouble, "count"),
      "join.index_build_s" -> (tr.seconds("new_fast", "join.index_build"), "s"),
      "join.index_rows" -> (indexRows(q).toDouble, "count"),
      "join.leaf_histogram_s" -> (tr.seconds("new_fast", "join.leaf_histogram"), "s"),
      "join.leaf_histogram_jobs" -> (tr.jobs("new_fast", "join.leaf_histogram").toDouble, "count"),
      "join.sample_uniform_s" -> (tr.seconds("new_fast", "join.sample_uniform"), "s"),
      "join.count_box_us" -> (countUs, "us"),
      "join.sample_box_us" -> (sampleUs, "us"),
      "join.materialize_s" -> (tr.seconds("full_join", "join.materialize"), "s"),
      "join.full_join_collect_s" -> (tr.seconds("full_join", "join.full_join_collect"), "s"),
      "core.alg2_s" -> (tr.seconds("new_fast", "core.alg2"), "s"),
      "core.alg2_calls" -> (tr.of("new_fast", "core.alg2").length.toDouble, "count"),
      "core.coreset_points" -> (fast.inner.map(_.coresetSize).sum.toDouble, "count"),
      "core.alg1_s" -> (tr.seconds("new_slow", "core.alg1"), "s"),
      "core.alg1_coreset_points" -> (slow.inner.map(_.coresetSize).sum.toDouble, "count"),
      "cluster.leaf_gamma_s" -> (tr.seconds("new_fast", "cluster.leaf_gamma"), "s"),
      "cluster.coreset_gamma_s" -> (coreGamma, "s"),
      "cluster.full_join_gamma_s" -> (tr.seconds("full_join", "cluster.full_join_gamma"), "s"),
      "baselines.cost_eval_s" -> (tr.seconds("cost_eval", "baselines.cost_eval"), "s"),
      "baselines.cost_eval_jobs" -> (tr.jobs("cost_eval", "baselines.cost_eval").toDouble, "count"),
      "baselines.rk_grid_cells" ->
        (untracedCall("rk_means").outcome.flatMap(_.gridCells).getOrElse(0).toDouble, "count"))
    Method.all.foreach(meth => m(s"spark_jobs.${meth.name}") = (counter.jobs(s"method:${meth.name}").toDouble, "count"))
    m("trace.coverage") = (tr.covered("new_fast") / fastTotal, "ratio")
    m("trace.overhead") = (fastTotal / warmFast.seconds, "ratio")
    m("trace.replay_match") = (if (matchFast && matchSlow) 1.0 else 0.0, "bool")

    record("untraced_calls") = (calls :+ warmFast).map(c => Map("method" -> c.method, "seconds" -> c.seconds,
      "cost" -> c.cost.getOrElse(Double.NaN), "cost_over_r_u" -> costOverRU(c), "failures" -> c.failures))
    record("new_slow_coreset_weight_sums") = slow.inner.map(_.coreW.sum)
    record("spans") = tr.spans.map(s => Map("parent" -> s.parent, "name" -> s.name,
      "seconds" -> s.seconds, "jobs" -> counter.jobs(s.group))).toSeq
    record("shares") = Map(
      "new_fast_join" -> Seq("join.reduce", "join.index_build", "join.leaf_histogram", "join.sample_uniform")
        .map(tr.seconds("new_fast", _)).sum / fastTotal,
      "new_fast_alg2" -> tr.seconds("new_fast", "core.alg2") / fastTotal,
      "new_slow_alg1" -> tr.seconds("new_slow", "core.alg1") / untracedCall("new_slow").seconds,
      "full_join_materializing" -> (tr.seconds("full_join", "join.materialize") +
        tr.seconds("full_join", "join.full_join_collect")) / untracedCall("full_join").seconds)
    (m, calls ++ Seq(warmFast, Call("trace", fastTotal, None, None, failures.toSeq)))
  }

  /** Rows of the reduced relations: what `LocalJoinIndex.build` collects. */
  def indexRows(q: AcyclicQuery): Long = {
    val red = Yannakakis.fullReduce(q)
    red.relations.map(_.df.count()).sum
  }

  // ------------------------------------------------------------------- main

  def environment(a: Args, spark: SparkSession): Map[String, Any] = {
    val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val conf = spark.conf
    Map(
      "master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "driver_heap_max_bytes" -> Runtime.getRuntime.maxMemory,
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
        .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).toSeq,
      "cores" -> Runtime.getRuntime.availableProcessors,
      "memory_bytes" -> os.getTotalMemorySize,
      "spark_version" -> spark.version,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "scala_version" -> scala.util.Properties.versionNumberString,
      "git_sha" -> a.gitSha,
      "source_sha256" -> a.sourceSha)
  }

  def main(argv: Array[String]): Unit = {
    val start = System.nanoTime()
    val phases = mutable.LinkedHashMap.empty[String, Double]
    def phase(name: String): Unit = phases(name) = (System.nanoTime() - start) / 1e9
    val a = parse(argv)
    val w = a.workload
    val st = setUp(a, phase)
    phase("set_up")
    val spark = st.spark
    val failures = mutable.ArrayBuffer.empty[String]
    if (st.checksums.map(c => (c._2, c._3)).distinct.length != 1)
      failures += s"inputs differ between masters: ${st.checksums.mkString(", ")}"

    val (warm, instances) = warmUp(a, st)
    phase("warm_up")

    val record = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "why" -> w.why, "seed" -> a.seed, "seconds" -> a.seconds,
      "trace" -> (if (a.trace) 1 else 0), "params" -> w.params.toMap,
      "environment" -> environment(a, spark),
      "instances" -> instances.map(i => Map("instance" -> i.id, "seed" -> i.seed,
        "input_rows" -> i.inputRows, "join_size" -> i.nJoin)),
      "setup_s" -> st.seconds,
      "instance0_checksums" -> st.checksums.map { case (m, n, s) =>
        Map("master" -> m, "rows" -> n, "checksum" -> s.toString) },
      "warmup" -> warm.map(c => Map("method" -> c.method, "seconds" -> c.seconds, "failures" -> c.failures)))

    val (metrics, calls) = if (a.trace) traced(a, st, instances, record) else untraced(a, st, instances, record)
    failures ++= warm.flatMap(c => c.failures.map(f => s"warm-up ${c.method}: $f"))
    phase("measure")
    val failed = calls.filter(_.failures.nonEmpty)
    failures ++= failed.flatMap(c => c.failures.map(f => s"${c.method}: $f"))
    record("failures") = failures.toSeq
    spark.stop()
    phase("stop")
    record("phases_s") = phases
    record("gc_s") = java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
      .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime).sum / 1e3

    println(Json(record))
    println(Json(mutable.LinkedHashMap[String, Any](
      "correct" -> failures.isEmpty,
      "attempted" -> calls.length,
      "failed" -> failed.length,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })))
  }
}

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Number => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case xs: Array[_] => apply(xs.toSeq)
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}
