package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import scala.collection.mutable.ArrayBuffer

/** Counts Spark jobs by job group. Read the counts only after [[drain]]:
  * the listener bus is asynchronous, so a job's start event can arrive after
  * the call that ran it has returned.
  */
final class JobCounter(sc: SparkContext) extends SparkListener {
  private val starts = new ConcurrentHashMap[String, Integer]()
  private val groupOfJob = new ConcurrentHashMap[Integer, String]()
  private val ended = ConcurrentHashMap.newKeySet[String]()
  private var drains = 0
  sc.addSparkListener(this)

  private def group(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = group(e.properties)
    starts.merge(g, 1, (a: Integer, b: Integer) => a + b)
    groupOfJob.put(e.jobId, g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(groupOfJob.get(e.jobId)).foreach(ended.add)

  /** Run a sentinel job and wait for its end event: events are delivered in
    * order, so every earlier job has been counted once it arrives.
    */
  def drain(): Unit = {
    drains += 1
    val g = s"__drain$drains"
    sc.setJobGroup(g, "listener drain")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30_000_000_000L
    while (!ended.contains(g)) {
      require(System.nanoTime() < deadline, "Spark listener bus did not drain within 30 s")
      Thread.sleep(5)
    }
  }

  def jobs(group: String): Int = Option(starts.get(group)).map(_.intValue).getOrElse(0)
}

/** Spans around calls into the program's layers, kept in memory. Each span
  * runs under its own Spark job group, so its jobs are counted apart.
  */
final class Tracer(sc: SparkContext, counter: JobCounter) {
  final case class Span(id: Int, parent: String, name: String, nanos: Long) {
    def group: String = s"span$id:$parent/$name"
    def seconds: Double = nanos / 1e9
  }
  val spans = ArrayBuffer.empty[Span]
  private var parent = ""

  /** Time `f` as a child span of the current parent. */
  def span[A](name: String)(f: => A): A = {
    val id = spans.length
    val g = Span(id, parent, name, 0L).group
    sc.setJobGroup(g, name)
    val t0 = System.nanoTime()
    try f
    finally {
      spans += Span(id, parent, name, System.nanoTime() - t0)
      sc.clearJobGroup()
    }
  }

  /** Run `f` with `p` as parent of the spans it opens; returns its wall time. */
  def under[A](p: String)(f: => A): (A, Double) = {
    val saved = parent
    parent = p
    val t0 = System.nanoTime()
    try (f, (System.nanoTime() - t0) / 1e9)
    finally parent = saved
  }

  def of(p: String, name: String): Seq[Span] = spans.filter(s => s.parent == p && s.name == name).toSeq
  def seconds(p: String, name: String): Double = of(p, name).map(_.seconds).sum
  def jobs(p: String, name: String): Int = of(p, name).map(s => counter.jobs(s.group)).sum
  def covered(p: String): Double = spans.filter(_.parent == p).map(_.seconds).sum
}
